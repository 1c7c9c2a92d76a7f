package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gametree/internal/engine"
	"gametree/internal/games"
	"gametree/internal/tree"
)

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
		depth := 5 + rand.New(rand.NewSource(seed)).Intn(3)
		fixtures = append(fixtures, fixture{fmt.Sprintf("tree/seed%d", seed), engine.Keyed(engine.RandomArena(seed, depth, 4), 0), depth, nil})
	}
	fixtures = append(fixtures,
		fixture{"pessimal", engine.Arena(tree.WorstOrderedMinMax(4, 7, 1)), 7, nil},
		fixture{"arena/minmax", engine.Arena(tree.IIDMinMax(4, 6, -100, 100, 5)), 6, nil},
		fixture{"arena/minmax/horizon", engine.Arena(tree.IIDMinMax(4, 7, -100, 100, 6)), 5, nil},
		fixture{"arena/nor", engine.Arena(tree.IIDNor(4, 7, 0.38, 7)), 7, nil},
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

// movesOnly hides a position's MoveAppender, here and at every successor,
// so the engine generates every node through Moves.
type movesOnly struct{ engine.Position }

func (p movesOnly) Moves() []engine.Position {
	kids := p.Position.Moves()
	for i, k := range kids {
		kids[i] = movesOnly{k}
	}
	return kids
}

// TestScratchBufferReuse: a MoveAppender position searched through the
// engine must see recycled buffers (the free list grows to the recursion
// depth, not the node count) and still produce the plain-Moves value, on
// Connect-4 openings.
func TestScratchBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 10; trial++ {
		depth := 3 + rng.Intn(3)
		p := games.StandardConnect4().Drop(rng.Intn(7)).Drop(rng.Intn(7))
		plain := engine.Search(movesOnly{p}, depth)
		viaAppend := engine.Search(p, depth)
		if plain.Value != viaAppend.Value || plain.Nodes != viaAppend.Nodes {
			t.Fatalf("trial %d: append path %v != plain %v", trial, viaAppend, plain)
		}
		par, err := engine.SearchOpt(context.Background(), p, depth, engine.SearchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Value != plain.Value {
			t.Fatalf("trial %d: parallel append path %d != %d", trial, par.Value, plain.Value)
		}
	}
}
