package server

import "hetesim/internal/api"

// The tests predate internal/api and name the wire bodies as the handlers
// once declared them.
type (
	errorBody         = api.Error
	pairBody          = api.Pair
	topKBody          = api.TopK
	hitBody           = api.Hit
	whyBody           = api.Why
	explainBody       = api.Explain
	schemaBody        = api.Schema
	batchRequest      = api.BatchRequest[api.BatchQuery]
	batchQueryBody    = api.BatchQuery
	batchResponse     = api.BatchResponse[api.BatchResult]
	relevanceResponse = api.RelevanceResponse
	mutateRequest     = api.EdgesRequest
	mutateBody        = api.EdgesAck
)
