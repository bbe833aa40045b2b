package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"hetesim/internal/api"
	"hetesim/internal/server"
)

// runBatch answers a -batch file through the daemon's own POST /v1/batch
// body (server.Server.Batch), so the file format, the per-slot validation
// and codes, and the rendered results are the daemon's by construction. A
// local file is the operator's own: the daemon's request-size caps are off.
func runBatch(graphPath, file string, out io.Writer) error {
	g, err := loadGraph(graphPath)
	if err != nil {
		return err
	}
	raw, err := readFileOrStdin(file)
	if err != nil {
		return err
	}
	var req api.BatchRequest[api.BatchQuery]
	if err := json.Unmarshal(raw, &req); err != nil {
		return fmt.Errorf("batch file: %w", err)
	}
	if len(req.Queries) == 0 {
		return fmt.Errorf("batch file: no queries")
	}
	srv := server.New(g, server.WithBatchLimits(0, 0), server.WithLogf(func(string, ...any) {}))
	defer srv.Close()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(srv.Batch(context.Background(), req.Queries))
}
