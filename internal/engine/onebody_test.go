package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gametree/internal/engine"
	"gametree/internal/games"
)

// seededTree is a random explicit tree in which every node hashes (a
// unique id), so a table-backed search probes and stores at every
// interior node — including, in a pooled search, the ones above the split
// horizon.
type seededTree struct {
	kids []engine.Position
	val  int32
	id   uint64
}

func (p *seededTree) Moves() []engine.Position { return p.kids }
func (p *seededTree) Evaluate() int32          { return p.val }
func (p *seededTree) Hash() uint64             { return p.id }

func newSeededTree(rng *rand.Rand, depth, maxKids int, next *uint64) *seededTree {
	*next++
	p := &seededTree{val: int32(rng.Intn(201) - 100), id: *next * 0x9e3779b97f4a7c15}
	if depth > 0 {
		for n := 1 + rng.Intn(maxKids); n > 0; n-- {
			p.kids = append(p.kids, newSeededTree(rng, depth-1, maxKids, next))
		}
	}
	return p
}

// TestOneBodyAgreement is the agreement net over the engine's whole
// search surface: every entry point and driver is the same body, so on
// every fixture they must all return Search's root value; with no table
// one worker must visit exactly Search's nodes; and with a table one
// worker — splitting, joining and probing above the horizon — must visit
// exactly the nodes of the bare body over an equal table, and pick the
// same move. A value game's rows carry its Position form as a twin: the
// body's two instantiations must make the same search at one worker, with
// no table and over equal fresh tables.
func TestOneBodyAgreement(t *testing.T) {
	type fixture struct {
		name  string
		pos   engine.Position
		depth int
		twin  engine.Position
	}
	var fixtures []fixture
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var next uint64
		depth := 5 + rng.Intn(3)
		fixtures = append(fixtures, fixture{fmt.Sprintf("tree/seed%d", seed), newSeededTree(rng, depth, 4, &next), depth, nil})
	}
	fixtures = append(fixtures,
		fixture{"pessimal", (*engine.BenchTreeAppender)(engine.NewPessimalTree(7, 4, 0)), 7, nil},
		fixture{"connect4", games.StandardConnect4(), 6, nil},
		fixture{"tictactoe", games.TTT{}, 9, nil},
		fixture{"connect4/native", engine.NewNode(*games.StandardConnect4()), 6, games.StandardConnect4()},
		fixture{"random/native", engine.NewNode(games.NewRandomTree(7, 5)), 7, games.NewRandomTree(7, 5)},
	)

	ctx := context.Background()
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			want := engine.Search(f.pos, f.depth)
			check := func(name string, got engine.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Value != want.Value {
					t.Fatalf("%s: value %d, Search %d", name, got.Value, want.Value)
				}
			}

			shared := engine.NewTable(1 << 12) // warm across every width below
			for _, w := range []int{1, 2, 4} {
				plain, err := engine.SearchOpt(ctx, f.pos, f.depth, engine.SearchOptions{Workers: w})
				check(fmt.Sprintf("SearchOpt(w=%d)", w), plain, err)
				if w == 1 && (plain.Nodes != want.Nodes || plain.Best != want.Best) {
					t.Fatalf("one worker, no table: (best %d, nodes %d), Search (best %d, nodes %d)",
						plain.Best, plain.Nodes, want.Best, want.Nodes)
				}
				tt, err := engine.SearchOpt(ctx, f.pos, f.depth, engine.SearchOptions{Workers: w, Table: shared})
				check(fmt.Sprintf("SearchOpt(w=%d, shared table)", w), tt, err)
			}

			bare := engine.SearchBare(f.pos, f.depth, engine.NewTable(1<<12))
			check("bare body + table", bare, nil)
			pooled, err := engine.SearchOpt(ctx, f.pos, f.depth,
				engine.SearchOptions{Workers: 1, Table: engine.NewTable(1 << 12)})
			check("SearchOpt(w=1, fresh table)", pooled, err)
			if pooled.Nodes != bare.Nodes || pooled.Best != bare.Best {
				t.Fatalf("one worker + table: (best %d, nodes %d), bare body + table (best %d, nodes %d)",
					pooled.Best, pooled.Nodes, bare.Best, bare.Nodes)
			}

			for _, opt := range []engine.SearchOptions{{}, {Table: engine.NewTable(1 << 12)}, {Workers: 1}} {
				pvs, err := engine.SearchPVS(ctx, f.pos, f.depth, opt)
				check(fmt.Sprintf("SearchPVS(%+v)", opt), pvs, err)
			}
			for _, guess := range []int32{0, engine.WinScore(), -engine.WinScore()} {
				m, err := engine.MTDF(ctx, f.pos, f.depth, guess, engine.SearchOptions{})
				check(fmt.Sprintf("MTDF(first=%d)", guess), m, err)
			}
			it, _, err := engine.SearchIterative(ctx, f.pos, f.depth, engine.SearchOptions{})
			check("SearchIterative", it, err)

			if f.twin == nil {
				return
			}
			if tw := engine.Search(f.twin, f.depth); tw != want {
				t.Fatalf("Search: value game %+v, Position form %+v", want, tw)
			}
			for _, table := range []bool{false, true} {
				opt := func() engine.SearchOptions {
					if table {
						return engine.SearchOptions{Workers: 1, Table: engine.NewTable(1 << 12)}
					}
					return engine.SearchOptions{Workers: 1}
				}
				got, err := engine.SearchOpt(ctx, f.pos, f.depth, opt())
				check("SearchOpt(w=1)", got, err)
				tw, err := engine.SearchOpt(ctx, f.twin, f.depth, opt())
				if err != nil || got != tw {
					t.Fatalf("SearchOpt(w=1, table %v): value game %+v, Position form %+v (%v)", table, got, tw, err)
				}
			}
		})
	}
}
