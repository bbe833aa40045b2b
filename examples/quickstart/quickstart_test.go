// Quickstart: build a tiny bibliographic network by hand (the Fig. 4
// example of the paper), define relevance paths, and run HeteSim queries —
// pair scores, symmetry, and a top-k search.
//
// Run it with: go test ./examples/quickstart -v
package quickstart

import (
	"context"
	"fmt"
	"log"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/rank"
)

func Example() {
	// 1. Declare the schema: authors write papers, papers are published
	// in conferences.
	schema := hin.NewSchema()
	schema.MustAddType("author", 'A')
	schema.MustAddType("paper", 'P')
	schema.MustAddType("conference", 'C')
	schema.MustAddRelation("writes", "author", "paper")
	schema.MustAddRelation("published_in", "paper", "conference")

	// 2. Build the Fig. 4 network: all of Tom's papers are in KDD.
	b := hin.NewBuilder(schema)
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("writes", "Tom", "p2")
	b.AddEdge("writes", "Mary", "p2")
	b.AddEdge("writes", "Mary", "p3")
	b.AddEdge("writes", "Bob", "p4")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddEdge("published_in", "p2", "KDD")
	b.AddEdge("published_in", "p3", "SIGMOD")
	b.AddEdge("published_in", "p4", "SIGMOD")
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 3. A relevance path gives the query its semantics: APC relates
	// authors to the conferences that publish their papers.
	apc := metapath.MustParse(schema, "APC")
	engine := core.NewEngine(g)

	score, err := engine.Pair(context.Background(), apc, "Tom", "KDD")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HeteSim(Tom, KDD | APC)    = %.4f\n", score)

	// Symmetry (Property 3): the reverse path gives the same score.
	back, err := engine.Pair(context.Background(), apc.Reverse(), "KDD", "Tom")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HeteSim(KDD, Tom | CPA)    = %.4f (symmetric)\n", back)

	// The raw meeting probability of Example 2 in the paper is 0.5.
	rawEngine := core.NewEngine(g, core.WithNormalization(false))
	raw, err := rawEngine.Pair(context.Background(), apc, "Tom", "KDD")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unnormalized meeting prob  = %.4f (Example 2 of the paper)\n", raw)

	// 4. Top-k search: which conferences matter most to Mary?
	scores, err := engine.SingleSource(context.Background(), apc, "Mary")
	if err != nil {
		log.Fatal(err)
	}
	items, err := rank.List(scores, g.NodeIDs("conference"), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMary's conference profile (APC):")
	fmt.Print(rank.Format(items))

	// 5. Different-typed and same-typed objects are handled uniformly:
	// APA relates authors through shared papers.
	apa := metapath.MustParse(schema, "APA")
	coauth, err := engine.Pair(context.Background(), apa, "Tom", "Mary")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHeteSim(Tom, Mary | APA)   = %.4f\n", coauth)

	// Output:
	// HeteSim(Tom, KDD | APC)    = 1.0000
	// HeteSim(KDD, Tom | CPA)    = 1.0000 (symmetric)
	// unnormalized meeting prob  = 0.5000 (Example 2 of the paper)
	//
	// Mary's conference profile (APC):
	//  1  KDD     0.5000
	//  2  SIGMOD  0.5000
	//
	// HeteSim(Tom, Mary | APA)   = 0.5000
}
