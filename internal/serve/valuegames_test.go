package serve

import (
	"context"
	"runtime/debug"
	"testing"

	"gametree/internal/engine"
)

// goldenSearches are sequential searches of served positions, answered by
// the []int8 Connect-4 and the boxed RandomTree, before either was a value
// game: 16 six-ply Connect-4 openings of the lib_connect4 kind at depth 6
// and 16 RandomTree roots at depth 8. A game that changed meaning, or a
// body that changed its move order, fails here even if every search of
// the code under test agrees with every other.
var goldenSearches = []struct {
	game, pos          string
	depth              int
	value, best, nodes int64
}{
	{"connect4", "541456", 6, -2, 2, 9668},
	{"connect4", "540242", 6, -4, 1, 3435},
	{"connect4", "545055", 6, 2, 2, 4066},
	{"connect4", "451245", 6, 2, 2, 6697},
	{"connect4", "062235", 6, 16777216, 3, 2089},
	{"connect4", "224023", 6, 4, 0, 1770},
	{"connect4", "551060", 6, -6, 4, 5308},
	{"connect4", "102266", 6, -6, 1, 2740},
	{"connect4", "006110", 6, -5, 0, 6320},
	{"connect4", "614031", 6, 16777216, 4, 5524},
	{"connect4", "431211", 6, -6, 0, 1977},
	{"connect4", "206005", 6, 1, 1, 4330},
	{"connect4", "510550", 6, -1, 0, 2651},
	{"connect4", "612345", 6, -5, 0, 2429},
	{"connect4", "036034", 6, -6, 1, 2464},
	{"connect4", "350235", 6, 6, 0, 1137},
	{"random", "8703039523835550197:5", 8, -504, 1, 41263},
	{"random", "7788224714388786143:5", 8, -513, 1, 32336},
	{"random", "4610729212650589269:5", 8, -507, 3, 50843},
	{"random", "4532292211592841950:5", 8, -514, 4, 36236},
	{"random", "7794469952188934227:5", 8, -483, 0, 29538},
	{"random", "5705223205970238785:5", 8, -492, 2, 45643},
	{"random", "504836329405588845:5", 8, -513, 2, 36347},
	{"random", "9846422460625747903:5", 8, -507, 3, 48764},
	{"random", "6059907774847038878:5", 8, -488, 4, 40988},
	{"random", "10410406985943857750:5", 8, -480, 3, 41321},
	{"random", "17655029941193974934:5", 8, -506, 4, 39681},
	{"random", "123153170400413954:5", 8, -489, 4, 38292},
	{"random", "1379939035573106997:5", 8, -486, 2, 41676},
	{"random", "5172318543411877913:5", 8, -510, 1, 29267},
	{"random", "640021047882977102:5", 8, -509, 4, 38761},
	{"random", "14152187189990679473:5", 8, -495, 1, 31979},
}

// TestGoldenSearches pins the served connect4 and random positions to the
// answers above: engine.Search must give the same value, best move and
// node count, and a two-worker pool the same value.
func TestGoldenSearches(t *testing.T) {
	pool := engine.NewPool(2, nil, nil)
	defer pool.Close()
	for _, g := range goldenSearches {
		pos, _, err := ParsePosition(g.game, g.pos)
		if err != nil {
			t.Fatalf("%s %q: %v", g.game, g.pos, err)
		}
		r := engine.Search(pos, g.depth)
		if int64(r.Value) != g.value || int64(r.Best) != g.best || r.Nodes != g.nodes {
			t.Errorf("%s %q depth %d: (value %d, best %d, nodes %d), want (%d, %d, %d)",
				g.game, g.pos, g.depth, r.Value, r.Best, r.Nodes, g.value, g.best, g.nodes)
		}
		p, err := pool.Search(context.Background(), pos, g.depth)
		if err != nil || int64(p.Value) != g.value {
			t.Errorf("%s %q depth %d: pooled value %d (%v), want %d", g.game, g.pos, g.depth, p.Value, err, g.value)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates on its own.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestWarmPoolSearchAllocations is the allocation guard of the value-game
// path: on a warm pool, a search of a served connect4 or random position
// makes a small constant number of allocations, however many nodes it
// visits. The Connect-4 searches probe and store a table, so every search,
// warm-up included, takes a different opening and the table never answers
// at the root; they go to depth 8 because a table search orders its
// children, and at depth 6 one visits only about 500 nodes. Warming runs every worker through splits and nested joins,
// which size its buffer stack, split points and deque once.
func TestWarmPoolSearchAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	const maxAllocs, minNodes = 16, 2000
	ctx := context.Background()
	for _, tc := range []struct {
		game           string
		warm, measured []string
		depth          int
		table          bool
	}{
		{"connect4",
			[]string{"540242", "062235", "224023", "102266", "431211", "510550", "612345", "036034", "350235"},
			[]string{"541456", "451245", "006110", "614031", "551060", "206005", "545055"}, 8, true},
		{"random",
			[]string{"42:5", "43:5", "44:5", "45:5", "46:5", "47:5"},
			[]string{"42:5", "43:5", "44:5", "45:5", "46:5", "47:5"}, 8, false},
	} {
		parse := func(list []string) []engine.Position {
			var ps []engine.Position
			for _, s := range list {
				p, _, err := ParsePosition(tc.game, s)
				if err != nil {
					t.Fatal(err)
				}
				ps = append(ps, p)
			}
			return ps
		}
		warm, measured := parse(tc.warm), parse(tc.measured)
		for _, w := range []int{1, 2} {
			var table *engine.Table
			if tc.table {
				table = engine.NewTable(1 << 16)
			}
			pool := engine.NewPool(w, table, nil)
			for _, p := range warm {
				if _, err := pool.Search(ctx, p, tc.depth); err != nil {
					t.Fatal(err)
				}
			}
			i, fewest := 0, int64(-1)
			allocs := testing.AllocsPerRun(len(measured)-1, func() {
				r, err := pool.Search(ctx, measured[i], tc.depth)
				if err != nil {
					t.Fatal(err)
				}
				i++
				if fewest < 0 || r.Nodes < fewest {
					fewest = r.Nodes
				}
			})
			pool.Close()
			if fewest <= minNodes {
				t.Errorf("%s w=%d: a search visited only %d nodes, want > %d", tc.game, w, fewest, minNodes)
			}
			if allocs > maxAllocs {
				t.Errorf("%s w=%d: %.0f allocations per search, want <= %d", tc.game, w, allocs, maxAllocs)
			}
		}
	}
}
