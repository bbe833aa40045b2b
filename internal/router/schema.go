package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"hetesim/internal/api"
	"hetesim/internal/hin"
)

// The router needs the network schema only to canonicalize path keys (a
// path and its reverse must land on the same replica). It rebuilds one
// from any replica's GET /v1/schema — the schema is a property of the
// graph, identical across the fleet.

// fetchSchema fetches and rebuilds the schema from the first replica that
// answers.
func (r *Router) fetchSchema(ctx context.Context) (*hin.Schema, error) {
	var lastErr error = errors.New("no replicas")
	for _, rep := range r.replicas {
		s, err := fetchSchemaFrom(ctx, r.client, rep.base)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("router: fetching schema: %w", lastErr)
}

func fetchSchemaFrom(ctx context.Context, client *http.Client, base string) (*hin.Schema, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/schema", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/v1/schema: status %d", base, resp.StatusCode)
	}
	var body api.Schema
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	s := hin.NewSchema()
	for _, t := range body.Types {
		var ab byte
		if t.Abbrev != "" {
			ab = t.Abbrev[0]
		}
		if err := s.AddType(t.Name, ab); err != nil {
			return nil, err
		}
	}
	for _, rel := range body.Relations {
		if err := s.AddRelation(rel.Name, rel.Source, rel.Target); err != nil {
			return nil, err
		}
	}
	return s, nil
}
