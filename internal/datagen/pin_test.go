package datagen

import (
	"hash/fnv"
	"sort"
	"strconv"
	"testing"
)

// TestGeneratorsArePinned holds each generator's output to recorded
// values: the graph fingerprint (node IDs in index order, every weight's
// bits), the Stats line and a checksum of the ground-truth labels. A change
// of node order, of an edge or of a weight's bits fails it, so a faster
// generator or builder must produce the same graphs.
func TestGeneratorsArePinned(t *testing.T) {
	cases := []struct {
		name   string
		gen    func() (*Dataset, error)
		fp     uint64
		stats  string
		labels uint64
	}{
		{"acm-default", func() (*Dataset, error) { return ACM(DefaultACMConfig()) },
			0xb93ccf780dc3632a, "nodes: affiliation=1697 author=17000 conference=14 paper=12000 subject=73 term=1500 venue=196; edges: about=17176 affiliated_with=17000 mentions=80997 part_of=196 published_in=12000 writes=27562",
			0x17eb7097506d415f},
		{"acm-small", func() (*Dataset, error) { return ACM(SmallACMConfig()) },
			0x27bb5721a273d2f3, "nodes: affiliation=60 author=600 conference=14 paper=800 subject=30 term=200 venue=56; edges: about=1122 affiliated_with=600 mentions=5120 part_of=56 published_in=800 writes=1815",
			0xb3cdea625502c9f3},
		{"dblp-default", func() (*Dataset, error) { return DBLP(DefaultDBLPConfig()) },
			0x416a7ea7376aee9, "nodes: author=4200 conference=20 paper=4200 term=2477; edges: mentions=23352 published_in=4200 writes=9470",
			0x59316c55c9d0201f},
		{"movies-default", func() (*Dataset, error) { return Movies(DefaultMoviesConfig()) },
			0x68fb63ae8aeda6fe, "nodes: actor=600 director=150 genre=10 movie=800 user=2000; edges: directed_by=800 has_genre=1010 rates=26315 stars=2364",
			0x45ce7a6ac0ae845},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ds, err := c.gen()
			if err != nil {
				t.Fatal(err)
			}
			fp, stats, labels := ds.Graph.Fingerprint(), ds.Graph.Stats(), labelSum(ds.Labels)
			if fp != c.fp || stats != c.stats || labels != c.labels {
				t.Errorf("generated graph moved:\n got fp %#x labels %#x\n     %s\nwant fp %#x labels %#x\n     %s",
					fp, labels, stats, c.fp, c.labels, c.stats)
			}
		})
	}
}

// labelSum is an FNV-1a checksum of a dataset's labels, by type name.
func labelSum(labels map[string][]int) uint64 {
	types := make([]string, 0, len(labels))
	for name := range labels {
		types = append(types, name)
	}
	sort.Strings(types)
	h := fnv.New64a()
	for _, name := range types {
		h.Write([]byte(name))
		for _, l := range labels[name] {
			h.Write(strconv.AppendInt([]byte{' '}, int64(l), 10))
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
