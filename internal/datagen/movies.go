package datagen

import (
	"fmt"
	"math/rand"
	"slices"

	"hetesim/internal/hin"
)

// MovieGenres are the planted genres of the recommendation network.
var MovieGenres = []string{
	"action", "comedy", "drama", "horror", "sci-fi",
	"romance", "thriller", "animation", "documentary", "fantasy",
}

// MoviesConfig sizes the synthetic user–movie heterogeneous network used
// by the recommendation example — the application the paper's introduction
// motivates ("in a recommendation system, we need to know the relatedness
// between users and movies").
type MoviesConfig struct {
	Users          int
	Movies         int
	Actors         int
	Directors      int
	RatingsPerUser int
	Seed           int64
}

// DefaultMoviesConfig is a laptop-fast recommendation network.
func DefaultMoviesConfig() MoviesConfig {
	return MoviesConfig{
		Users:          2000,
		Movies:         800,
		Actors:         600,
		Directors:      150,
		RatingsPerUser: 15,
		Seed:           1,
	}
}

// SmallMoviesConfig is a reduced network for tests.
func SmallMoviesConfig() MoviesConfig {
	return MoviesConfig{
		Users:          200,
		Movies:         120,
		Actors:         80,
		Directors:      25,
		RatingsPerUser: 8,
		Seed:           1,
	}
}

// MoviesSchema returns the recommendation network schema: users (U) rate
// movies (M) that have genres (G), star actors (A) and are directed by
// directors (D).
func MoviesSchema() *hin.Schema {
	s := hin.NewSchema()
	s.MustAddType("user", 'U')
	s.MustAddType("movie", 'M')
	s.MustAddType("genre", 'G')
	s.MustAddType("actor", 'A')
	s.MustAddType("director", 'D')
	s.MustAddRelation("rates", "user", "movie")
	s.MustAddRelation("has_genre", "movie", "genre")
	s.MustAddRelation("stars", "movie", "actor")
	s.MustAddRelation("directed_by", "movie", "director")
	return s
}

// Movies generates a synthetic user–movie network with planted genre
// communities: every movie has a primary genre (plus occasional secondary
// ones), actors and directors specialize in genres, and users rate mostly
// within a favorite genre. Movies and users carry genre labels.
func Movies(cfg MoviesConfig) (*Dataset, error) {
	if cfg.Users <= 0 || cfg.Movies <= 0 || cfg.Actors <= 0 ||
		cfg.Directors <= 0 || cfg.RatingsPerUser <= 0 {
		return nil, fmt.Errorf("datagen: all movie sizes must be positive: %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := hin.NewBuilder(MoviesSchema())
	nG := len(MovieGenres)
	genre := newNodes(b, "genre", nG, named(MovieGenres))
	genre.all()

	// Actors and directors specialize in a genre.
	actor := newNodes(b, "actor", cfg.Actors, prefixed("actor"))
	actorGenre := make([]int, cfg.Actors)
	for a := range actorGenre {
		actorGenre[a] = rng.Intn(nG)
		actor.of(a)
	}
	director := newNodes(b, "director", cfg.Directors, prefixed("director"))
	directorGenre := make([]int, cfg.Directors)
	for d := range directorGenre {
		directorGenre[d] = rng.Intn(nG)
		director.of(d)
	}
	actorsByGenre := make([][]int, nG)
	for a, g := range actorGenre {
		actorsByGenre[g] = append(actorsByGenre[g], a)
	}
	directorsByGenre := make([][]int, nG)
	for d, g := range directorGenre {
		directorsByGenre[g] = append(directorsByGenre[g], d)
	}

	// Movies: primary genre, 0-1 secondary genre, 2-4 actors mostly from
	// the genre, one director.
	movie := newNodes(b, "movie", cfg.Movies, prefixed("movie"))
	movieGenre := make([]int, cfg.Movies)
	moviesByGenre := make([][]int, nG)
	for m := 0; m < cfg.Movies; m++ {
		g := rng.Intn(nG)
		movieGenre[m] = g
		moviesByGenre[g] = append(moviesByGenre[g], m)
		mid := movie.of(m)
		b.AddEdgeIndex("has_genre", mid, genre.of(g), 1)
		if rng.Float64() < 0.3 {
			b.AddEdgeIndex("has_genre", mid, genre.of(rng.Intn(nG)), 1)
		}
		nA := 2 + rng.Intn(3)
		var starring [4]int
		cast := starring[:0]
		for k := 0; k < nA; k++ {
			var a int
			if pool := actorsByGenre[g]; len(pool) > 0 && rng.Float64() < 0.8 {
				a = pool[rng.Intn(len(pool))]
			} else {
				a = rng.Intn(cfg.Actors)
			}
			if !slices.Contains(cast, a) {
				cast = append(cast, a)
				b.AddEdgeIndex("stars", mid, actor.of(a), 1)
			}
		}
		var d int
		if pool := directorsByGenre[g]; len(pool) > 0 && rng.Float64() < 0.8 {
			d = pool[rng.Intn(len(pool))]
		} else {
			d = rng.Intn(cfg.Directors)
		}
		b.AddEdgeIndex("directed_by", mid, director.of(d), 1)
	}

	// Users rate movies, mostly from their favorite genre; movie
	// popularity within a genre is Zipf.
	popularity := make([]*sampler, nG)
	for g := range popularity {
		if len(moviesByGenre[g]) > 0 {
			popularity[g] = newSampler(zipfWeights(len(moviesByGenre[g]), 0.8))
		}
	}
	userGenre := make([]int, cfg.Users)
	user := newNodes(b, "user", cfg.Users, prefixed("user"))
	ratedBy := make([]int, cfg.Movies) // the last user + 1 to rate each movie
	for u := 0; u < cfg.Users; u++ {
		fav := rng.Intn(nG)
		userGenre[u] = fav
		uid := user.of(u)
		for k := 0; k < cfg.RatingsPerUser; k++ {
			g := fav
			if rng.Float64() > 0.75 {
				g = rng.Intn(nG)
			}
			if len(moviesByGenre[g]) == 0 {
				continue
			}
			m := moviesByGenre[g][popularity[g].draw(rng)]
			if ratedBy[m] != u+1 {
				ratedBy[m] = u + 1
				b.AddEdgeIndex("rates", uid, movie.of(m), 1)
			}
		}
	}

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		Graph:     g,
		AreaNames: append([]string(nil), MovieGenres...),
		Labels:    make(map[string][]int),
	}
	ml := make([]int, g.NodeCount("movie"))
	copy(ml, movieGenre)
	ds.Labels["movie"] = ml
	ul := make([]int, g.NodeCount("user"))
	copy(ul, userGenre)
	ds.Labels["user"] = ul
	gl := make([]int, nG)
	for i := range gl {
		gl[i] = i
	}
	ds.Labels["genre"] = gl
	return ds, nil
}
