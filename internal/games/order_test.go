package games

import (
	"context"
	"fmt"
	"testing"

	"gametree/internal/engine"
)

// orderedNodesParent is the node count of the one-worker table searches
// of TestOrderedTableSearches before table nodes ordered their children:
// the sum, over the sample's openings at depths 6 and 8, of
// engine.SearchOpt at one worker over a fresh 2^16-entry table.
const orderedNodesParent = 256172

// TestOrderedTableSearches checks the searches that order the children of
// table nodes by Evaluate on a fixed seeded sample of Connect-4 openings
// at depths 6 and 8: one, two and four workers, with and without PVS,
// MTD(f) and iterative deepening. Each must return engine.Search's value
// and a Best whose child, searched to the remaining depth, scores the
// negated root value; the one-worker searches, whose counts repeat
// exactly, must visit at most 60% of the nodes they visited in the
// position's own move order. The control is RandomTree, which never keys
// a table: a table search of it visits exactly engine.Search's nodes.
func TestOrderedTableSearches(t *testing.T) {
	ctx := context.Background()
	var nodesW1 int64
	for _, depth := range []int{6, 8} {
		for k, p := range c4Sample(8) {
			pos := engine.NewNode(p)
			want := engine.Search(pos, depth)
			kids := p.Children(nil)
			check := func(name string, r engine.Result, err error) {
				t.Helper()
				where := fmt.Sprintf("opening %d depth %d %s", k, depth, name)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if r.Value != want.Value {
					t.Fatalf("%s: value %d, Search %d", where, r.Value, want.Value)
				}
				if r.Best < 0 || r.Best >= len(kids) {
					t.Fatalf("%s: best %d of %d moves", where, r.Best, len(kids))
				}
				if v := engine.Search(engine.NewNode(kids[r.Best]), depth-1).Value; -v != want.Value {
					t.Fatalf("%s: best %d scores %d, root %d", where, r.Best, -v, want.Value)
				}
			}
			for _, w := range []int{1, 2, 4} {
				opt := engine.SearchOptions{Workers: w, Table: engine.NewTable(1 << 16)}
				r, err := engine.SearchOpt(ctx, pos, depth, opt)
				check(fmt.Sprintf("w=%d", w), r, err)
				if w == 1 {
					nodesW1 += r.Nodes
				}
				opt.Table = engine.NewTable(1 << 16)
				r, err = engine.SearchPVS(ctx, pos, depth, opt)
				check(fmt.Sprintf("w=%d pvs", w), r, err)
			}
			r, err := engine.MTDF(ctx, pos, depth, 0, engine.SearchOptions{Workers: 2})
			check("mtdf", r, err)
			r, _, err = engine.SearchIterative(ctx, pos, depth, engine.SearchOptions{Workers: 2})
			check("iterative", r, err)
		}
	}
	if nodesW1 > orderedNodesParent*6/10 {
		t.Errorf("one-worker table searches visited %d nodes, want at most 60%% of %d", nodesW1, orderedNodesParent)
	}

	random := engine.NewNode(NewRandomTree(5, 5))
	want := engine.Search(random, 8)
	r, err := engine.SearchOpt(ctx, random, 8, engine.SearchOptions{Workers: 1, Table: engine.NewTable(1 << 16)})
	if err != nil || r != want {
		t.Errorf("random tree over a table: %+v (%v), Search %+v", r, err, want)
	}
}
