package core

import (
	"context"
	"testing"

	"hetesim/internal/metapath"
)

// Package-level micro benchmarks of the engine's hot paths, complementing
// the repository-level experiment benches.

func benchGraphAndPath(b *testing.B, spec string) (*Engine, *metapath.Path) {
	b.Helper()
	g := randomBibGraph(12345)
	e := NewEngine(g)
	p := metapath.MustParse(g.Schema(), spec)
	if err := e.Precompute(context.Background(), p); err != nil {
		b.Fatal(err)
	}
	return e, p
}

func BenchmarkPairByIndex(b *testing.B) {
	e, p := benchGraphAndPath(b, "APVCVPA")
	n := e.Graph().NodeCount("author")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PairByIndex(context.Background(), p, i%n, (i*7)%n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSingleSourceByIndex(b *testing.B) {
	e, p := benchGraphAndPath(b, "APVCVPA")
	n := e.Graph().NodeCount("author")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SingleSourceByIndex(context.Background(), p, i%n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllPairsWarm(b *testing.B) {
	e, p := benchGraphAndPath(b, "APVCVPA")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AllPairs(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPairContributions(b *testing.B) {
	e, p := benchGraphAndPath(b, "APVCVPA")
	n := e.Graph().NodeCount("author")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.PairContributions(context.Background(), p, i%n, (i*7)%n, 10, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOddPathPair(b *testing.B) {
	e, p := benchGraphAndPath(b, "APVC")
	nA := e.Graph().NodeCount("author")
	nC := e.Graph().NodeCount("conference")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PairByIndex(context.Background(), p, i%nA, i%nC); err != nil {
			b.Fatal(err)
		}
	}
}
