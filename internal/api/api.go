// Package api declares the JSON bodies that cross the fleet's process
// boundaries — replica (internal/server) ⇄ router (internal/router) ⇄ CLI
// (cmd/hetesim) — exactly once each. It is a leaf: types only, no client.
// Where two producers fill different subsets of one body the type is the
// union and the fields are omitempty, so each side's bytes stay what they
// were when it had a private copy. bench/ keeps its own decoders on
// purpose: it is the outside observer of this contract.
package api

import (
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/obs"
)

// Error is every non-2xx JSON body: a human message and a stable
// machine-readable code (assert on the code, never the message).
type Error struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Plan reports which physical plan answered a hetesim query and what the
// optimizer estimated it would cost.
type Plan struct {
	Kind     string  `json:"kind"`
	EstFlops float64 `json:"est_flops"`
	Forced   bool    `json:"forced,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// Pair is the GET /v1/pair answer.
type Pair struct {
	Path    string      `json:"path"`
	Source  string      `json:"source"`
	Target  string      `json:"target"`
	Measure string      `json:"measure"`
	Score   float64     `json:"score"`
	Plan    *Plan       `json:"plan,omitempty"`
	Trace   *obs.Report `json:"trace,omitempty"`
}

// Hit is one ranked target of a top-k answer, solo, batched or ensemble.
type Hit struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// TopK is the GET /v1/topk answer.
type TopK struct {
	Path    string      `json:"path"`
	Source  string      `json:"source"`
	Measure string      `json:"measure"`
	Plan    *Plan       `json:"plan,omitempty"`
	Results []Hit       `json:"results"`
	Trace   *obs.Report `json:"trace,omitempty"`
}

// Why is the GET /v1/why answer: a pair's score by meeting object.
type Why struct {
	Path          string         `json:"path"`
	Source        string         `json:"source"`
	Target        string         `json:"target"`
	Score         float64        `json:"score"`
	Contributions []Contribution `json:"contributions"`
}

// Contribution is one meeting object's share of a pair's score.
type Contribution struct {
	Label    string  `json:"label"`
	Value    float64 `json:"value"`
	Fraction float64 `json:"fraction"`
}

// Explain is the GET /v1/explain answer: every physical plan's estimated
// cost for a path, amortized over an expected query count.
type Explain struct {
	Path    string         `json:"path"`
	Queries int            `json:"queries"`
	Report  string         `json:"report"`
	Plans   []PlanEstimate `json:"plans"`
}

// PlanEstimate is one row of an Explain answer.
type PlanEstimate struct {
	Kind        string  `json:"kind"`
	Flops       float64 `json:"flops"`
	Materialize float64 `json:"materialize"`
	Description string  `json:"description"`
}

// BatchRequest is the POST /v1/batch body and the CLI's -batch file. Q is
// BatchQuery where slots are decoded (replica, CLI) and json.RawMessage
// where they are only placed and passed through (router).
type BatchRequest[Q any] struct {
	Queries []Q `json:"queries"`
}

// BatchQuery is one slot of a batch: kind is "pair", "single_source" or
// "topk"; k and eps apply to topk; raw selects the unnormalized measure.
type BatchQuery struct {
	Kind    string  `json:"kind"`
	Path    string  `json:"path"`
	Source  string  `json:"source"`
	Target  string  `json:"target,omitempty"`
	K       int     `json:"k,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Measure string  `json:"measure,omitempty"`
	Raw     bool    `json:"raw,omitempty"`
}

// BatchResult is one answered slot: the query's identity echoed back, then
// score (pair), scores (single_source) or results (topk) — or the slot's own
// error and code, from the replica that failed it or the router that could
// not get it served.
type BatchResult struct {
	Kind    string    `json:"kind,omitempty"`
	Path    string    `json:"path,omitempty"`
	Source  string    `json:"source,omitempty"`
	Target  string    `json:"target,omitempty"`
	Score   *float64  `json:"score,omitempty"`
	Scores  []float64 `json:"scores,omitempty"`
	Results []Hit     `json:"results,omitempty"`
	Shared  bool      `json:"shared,omitempty"`
	Error   string    `json:"error,omitempty"`
	Code    string    `json:"code,omitempty"`
}

// Sharing is the batch scheduler's amortization account, embedded in the
// batch and relevance stats; additive, so the router sums its sub-batches'.
type Sharing struct {
	SharedQueries int `json:"shared_queries"`
	ChainBuilds   int `json:"chain_builds"`
	RowSteps      int `json:"row_steps"`
	NaiveRowSteps int `json:"naive_row_steps"`
}

func (s *Sharing) Add(o Sharing) {
	s.SharedQueries += o.SharedQueries
	s.ChainBuilds += o.ChainBuilds
	s.RowSteps += o.RowSteps
	s.NaiveRowSteps += o.NaiveRowSteps
}

// BatchStats is the stats block of a batch answer.
type BatchStats struct {
	Queries int `json:"queries"`
	Groups  int `json:"groups"`
	Sharing
	Amortization float64 `json:"amortization"`
	DurationMS   float64 `json:"duration_ms"`
}

// BatchResponse is the POST /v1/batch answer, slot for slot in request
// order; R is json.RawMessage where the router relays slots verbatim.
type BatchResponse[R any] struct {
	Results []R         `json:"results"`
	Stats   BatchStats  `json:"stats"`
	Trace   *obs.Report `json:"trace,omitempty"`
}

// RelevanceRequest is the POST /v1/relevance body: with a target it asks a
// pair score, with only a target type the k most relevant nodes of it.
type RelevanceRequest struct {
	Source     string   `json:"source"`
	SourceType string   `json:"source_type"`
	Target     string   `json:"target,omitempty"`
	TargetType string   `json:"target_type,omitempty"`
	K          int      `json:"k,omitempty"`
	MaxLen     int      `json:"max_len,omitempty"`
	MaxPaths   int      `json:"max_paths,omitempty"`
	Weighting  string   `json:"weighting,omitempty"`
	Paths      []string `json:"paths,omitempty"`
	Raw        bool     `json:"raw,omitempty"`
}

// RelevancePath is one ensemble member's contribution. A replica scoring
// the whole ensemble fills plan; the router scattering it fills shared. A
// failed member carries error and code instead, and no score: it is not
// summed (relevance.Assemble writes both forms, for both surfaces).
type RelevancePath struct {
	Path   string   `json:"path"`
	Weight float64  `json:"weight"`
	Score  *float64 `json:"score,omitempty"`
	Plan   string   `json:"plan,omitempty"`
	Shared bool     `json:"shared,omitempty"`
	Error  string   `json:"error,omitempty"`
	Code   string   `json:"code,omitempty"`
}

// RelevanceStats is the stats block of a relevance answer.
type RelevanceStats struct {
	Paths int `json:"paths"`
	Sharing
	DurationMS float64 `json:"duration_ms"`
}

// RelevanceResponse is the POST /v1/relevance answer; mode: "pair" | "topk".
type RelevanceResponse struct {
	Mode      string          `json:"mode"`
	Source    string          `json:"source"`
	Target    string          `json:"target,omitempty"`
	Score     *float64        `json:"score,omitempty"`
	Results   []Hit           `json:"results,omitempty"`
	Paths     []RelevancePath `json:"paths"`
	Weighting string          `json:"weighting"`
	Partial   bool            `json:"partial,omitempty"`
	Stats     RelevanceStats  `json:"stats"`
	Trace     *obs.Report     `json:"trace,omitempty"`
}

// Ready is a replica's GET /readyz body and the router's probe of it. The
// replication fields appear only on a follower-configured replica — role
// alone while it holds the election, all four while it follows — and their
// absence tells the router "not a follower". Declared in the (alphabetical)
// key order the endpoint has always emitted.
type Ready struct {
	Diverged       *bool    `json:"diverged,omitempty"`
	Fingerprint    string   `json:"fingerprint"`
	Follows        *string  `json:"follows,omitempty"`
	ReplicationLag *float64 `json:"replication_lag_seconds,omitempty"` // seconds since the last confirmed catch-up; -1 = never
	Role           string   `json:"role,omitempty"`
	Status         string   `json:"status"`
	WALSeq         uint64   `json:"wal_seq"`
}

// Replica is one row of the router's GET /v1/admin/replicas.
type Replica struct {
	URL         string  `json:"url"`
	Healthy     bool    `json:"healthy"`
	Primary     bool    `json:"primary"`
	Diverged    bool    `json:"diverged"`
	Breaker     string  `json:"breaker"`
	WALSeq      uint64  `json:"wal_seq"`
	Lag         float64 `json:"replication_lag_seconds"` // -1: not a follower / unknown
	Follows     string  `json:"follows,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
}

// Primary is the router's GET /v1/admin/primary answer, polled by
// followers: the elected primary's base URL, "" in a failover window.
type Primary struct {
	Primary string `json:"primary"`
}

// Schema is the GET /v1/schema answer; the router rebuilds a hin.Schema
// from it.
type Schema struct {
	Types     []SchemaType     `json:"types"`
	Relations []SchemaRelation `json:"relations"`
}

// SchemaType is one node type with its population.
type SchemaType struct {
	Name   string `json:"name"`
	Abbrev string `json:"abbrev,omitempty"`
	Count  int    `json:"count"`
}

// SchemaRelation is one relation with its edge count.
type SchemaRelation struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Target string `json:"target"`
	Edges  int    `json:"edges"`
}

// EdgesRequest is the POST /v1/admin/edges body. A batch re-sent with the
// Key of an already-acked batch is acknowledged again without re-applying;
// empty disables deduplication.
type EdgesRequest struct {
	Key string   `json:"key,omitempty"`
	Ops []hin.Op `json:"ops"`
}

// EdgesAck acknowledges a durable mutation batch; status is "applied" or
// "duplicate". The router reads Seq to advance the read-your-writes floor.
type EdgesAck struct {
	Status      string            `json:"status"`
	Seq         uint64            `json:"seq"`
	Fingerprint string            `json:"fingerprint"`
	Rewarm      *core.RewarmStats `json:"rewarm,omitempty"`
	WALBytes    int64             `json:"wal_bytes"`
}
