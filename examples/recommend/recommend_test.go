// Recommend: the recommendation application that motivates the paper's
// introduction ("in a recommendation system, we need to know the relatedness
// between users and movies"). Builds a synthetic user–movie heterogeneous
// network, scores unseen movies for a user along paths with different
// semantics (shared genres vs shared actors), learns per-path weights from
// the user's own ratings (the Section 5.1 supervised path-selection idea),
// ranks by the learned mixture through the relevance ensemble, and shows the
// pruned top-k search of Section 4.6.
//
// Run it with: go test ./examples/recommend -v
package recommend

import (
	"context"
	"fmt"
	"log"

	"hetesim/internal/core"
	"hetesim/internal/datagen"
	"hetesim/internal/learn"
	"hetesim/internal/metapath"
	"hetesim/internal/relevance"
)

func Example() {
	ds, err := datagen.Movies(datagen.SmallMoviesConfig())
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	engine := core.NewEngine(g)

	// Candidate relevance paths from users to movies, each with its own
	// semantics: movies sharing genres with the user's rated movies, and
	// movies sharing actors with them.
	byGenre := metapath.MustParse(g.Schema(), "UMGM")
	byActor := metapath.MustParse(g.Schema(), "UMAM")
	paths := []*metapath.Path{byGenre, byActor}

	// Pick a user and hide none of their ratings for simplicity; train
	// path weights on (user, movie) pairs labeled by whether the user
	// rated the movie.
	user := 0
	uid, err := g.NodeID("user", user)
	if err != nil {
		log.Fatal(err)
	}
	rates, err := g.Adjacency("rates")
	if err != nil {
		log.Fatal(err)
	}
	rated := map[int]bool{}
	rates.Row(user).Entries(func(m int, _ float64) { rated[m] = true })

	var examples []learn.Example
	for m := 0; m < g.NodeCount("movie"); m += 3 {
		label := 0.0
		if rated[m] {
			label = 1
		}
		examples = append(examples, learn.Example{Src: user, Dst: m, Label: label})
	}
	weights, err := learn.PathWeights(context.Background(), engine, paths, examples, learn.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned path weights for %s: UMGM=%.3f UMAM=%.3f\n\n", uid, weights[0], weights[1])

	// Rank by the learned mixture: the relevance ensemble over exactly these
	// paths, weighted by the fit (a zero-weight path is never scored).
	const show = 8
	_, ranked, err := relevance.TopK(context.Background(), engine, "user", user, "movie", len(rated)+show, relevance.Options{
		Paths:     []string{byGenre.String(), byActor.String()},
		Weighting: relevance.WeightLearned,
		Learned:   relevance.WeightsMap(paths, weights),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top recommendations for %s (favorite genre: %s):\n",
		uid, ds.AreaNames[ds.AreaOf("user", user)])
	printed := 0
	for _, s := range ranked {
		if rated[s.Index] || printed == show {
			continue
		}
		mid, _ := g.NodeID("movie", s.Index)
		fmt.Printf("  %-12s %.4f  (genre: %s)\n", mid, s.Score, ds.AreaNames[ds.AreaOf("movie", s.Index)])
		printed++
	}

	// The same query through the pruned top-k search (Section 4.6): the
	// genre path alone, candidates restricted to overlapping supports.
	top, err := engine.TopKSearch(context.Background(), byGenre, user, 5, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npruned top-k along UMGM (includes already-rated movies):")
	for _, s := range top {
		mid, _ := g.NodeID("movie", s.Index)
		fmt.Printf("  %-12s %.4f\n", mid, s.Score)
	}
	// Output:
	// learned path weights for user0000: UMGM=0.000 UMAM=1.892
	//
	// top recommendations for user0000 (favorite genre: sci-fi):
	//   movie0033    0.6704  (genre: sci-fi)
	//   movie0035    0.4511  (genre: sci-fi)
	//   movie0040    0.4511  (genre: sci-fi)
	//   movie0052    0.4274  (genre: sci-fi)
	//   movie0018    0.3310  (genre: sci-fi)
	//   movie0088    0.2873  (genre: sci-fi)
	//   movie0020    0.2658  (genre: horror)
	//   movie0031    0.2439  (genre: sci-fi)
	//
	// pruned top-k along UMGM (includes already-rated movies):
	//   movie0026    0.3476
	//   movie0093    0.3476
	//   movie0018    0.3354
	//   movie0028    0.3354
	//   movie0031    0.3354
}
