package router

import "hetesim/internal/api"

// The tests predate internal/api and name the wire bodies as the router
// once declared them.
type (
	errorBody         = api.Error
	replicaBody       = api.Replica
	relevanceResponse = api.RelevanceResponse
)
