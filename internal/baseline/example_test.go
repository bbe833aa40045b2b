package baseline_test

import (
	"context"
	"fmt"

	"hetesim/internal/baseline"
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
)

func fig4() *hin.Graph {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	b := hin.NewBuilder(s)
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("writes", "Tom", "p2")
	b.AddEdge("writes", "Mary", "p2")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddEdge("published_in", "p2", "KDD")
	return b.MustBuild()
}

func ExamplePCRW_Pair() {
	g := fig4()
	m := baseline.NewPCRWFromEngine(core.NewEngine(g))
	apc := metapath.MustParse(g.Schema(), "APC")
	// PCRW is direction-dependent: the same pair scores differently
	// along the path and against it.
	fwd, _ := m.Pair(context.Background(), apc, "Tom", "KDD")
	bwd, _ := m.Pair(context.Background(), apc.Reverse(), "KDD", "Tom")
	fmt.Printf("%.2f %.2f\n", fwd, bwd)
	// Output: 1.00 0.75
}

func ExamplePathSim_Pair() {
	g := fig4()
	m := baseline.NewPathSim(g)
	apa := metapath.MustParse(g.Schema(), "APA")
	v, _ := m.Pair(context.Background(), apa, "Tom", "Mary")
	fmt.Printf("%.2f\n", v)
	// Output: 0.67
}
