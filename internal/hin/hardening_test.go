package hin

import (
	"strings"
	"testing"
)

// TestReadRejectsDuplicateNodeIDs is the index-shift regression test: a
// JSON graph whose node list repeats an id must be rejected outright —
// silently deduplicating would shift every later node's index and wire
// edges to the wrong endpoints.
func TestReadRejectsDuplicateNodeIDs(t *testing.T) {
	in := `{"version":1,
		"types":[{"name":"author","abbrev":"A"},{"name":"paper","abbrev":"P"}],
		"relations":[{"name":"writes","source":"author","target":"paper"}],
		"nodes":{"author":["Tom","Mary","Tom","Ann"],"paper":["p1"]},
		"edges":{"writes":[{"s":3,"t":0}]}}`
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("Read accepted a duplicate node id")
	}
	for _, want := range []string{"Tom", "author", "duplicate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestReadRejectsBadGraphFiles sweeps the remaining JSON-loader guards.
func TestReadRejectsBadGraphFiles(t *testing.T) {
	cases := []struct {
		name, in, wantInErr string
	}{
		{"empty node id",
			`{"version":1,"types":[{"name":"author"}],"relations":[],"nodes":{"author":["Tom",""]},"edges":{}}`,
			"empty id"},
		{"edge to unknown node",
			`{"version":1,"types":[{"name":"author"},{"name":"paper"}],
			"relations":[{"name":"writes","source":"author","target":"paper"}],
			"nodes":{"author":["Tom"],"paper":["p1"]},
			"edges":{"writes":[{"s":0,"t":7}]}}`,
			"unknown node"},
		{"negative edge index",
			`{"version":1,"types":[{"name":"author"},{"name":"paper"}],
			"relations":[{"name":"writes","source":"author","target":"paper"}],
			"nodes":{"author":["Tom"],"paper":["p1"]},
			"edges":{"writes":[{"s":-1,"t":0}]}}`,
			"unknown node"},
		{"negative weight",
			`{"version":1,"types":[{"name":"author"},{"name":"paper"}],
			"relations":[{"name":"writes","source":"author","target":"paper"}],
			"nodes":{"author":["Tom"],"paper":["p1"]},
			"edges":{"writes":[{"s":0,"t":0,"w":-0.5}]}}`,
			"invalid weight"},
		{"nodes for undeclared type",
			`{"version":1,"types":[{"name":"author"}],"relations":[],"nodes":{"ghost":["x"]},"edges":{}}`,
			"undeclared type"},
		{"edges for undeclared relation",
			`{"version":1,"types":[{"name":"author"}],"relations":[],"nodes":{},"edges":{"ghost":[]}}`,
			"undeclared relation"},
		{"wrong version",
			`{"version":99}`,
			"version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("Read accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantInErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantInErr)
			}
		})
	}
}
