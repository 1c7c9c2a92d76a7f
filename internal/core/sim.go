package core

import (
	"fmt"
	"sort"

	"gametree/internal/tree"
)

// costModel picks what one unit of work is. Each entry point fixes it:
// the N- functions run under nodeExpansion, all others under leafEval.
type costModel int

const (
	leafEval      costModel = iota // interior nodes start expanded; a unit is one leaf evaluated
	nodeExpansion                  // nothing starts expanded; a unit is one node expanded
)

// rules is the per-tree-kind half of the simulator: the determination
// rule of NOR trees or the pruning process of MIN/MAX trees, over the
// frontier both kinds share. Each kind keeps the frontier's settled bits.
type rules interface {
	// expand applies the node-expansion operation to v, which the
	// frontier has just marked expanded. Expanding a leaf settles it;
	// expanding an interior node only reveals its children.
	expand(v tree.NodeID)
	// prune applies one pass of the pruning rule and reports whether
	// anything was deleted.
	prune() bool
	// done reports whether the root is settled; value is then its value.
	done() bool
	value() int32
}

// frontier is the state both tree kinds share: which nodes are expanded,
// which are settled, and the nodes selected for the current step. A node
// is live while it is unsettled; it is on the frontier when it is live,
// unexpanded and its parent is expanded. Every step expands frontier
// nodes only.
type frontier struct {
	t        *tree.Tree
	rules    rules
	expanded []bool // the node's children exist, or its leaf value is known
	// settled marks a node that has left the live (NOR) or pruned
	// (MIN/MAX) tree: determined, or finished or deleted.
	settled  []bool
	selected []tree.NodeID
	cands    []candidate
}

// candidate records a frontier node together with its pruning number.
type candidate struct {
	node tree.NodeID
	pn   int
}

func (f *frontier) init(t *tree.Tree, r rules, cm costModel) {
	f.t, f.rules = t, r
	f.expanded = make([]bool, t.Len())
	f.settled = make([]bool, t.Len())
	if cm == leafEval {
		for v := range f.expanded {
			f.expanded[v] = !t.IsLeaf(tree.NodeID(v))
		}
	}
}

// collectWidth gathers into cands, in left-to-right order, every frontier
// node whose pruning number is at most w, with that pruning number. The
// pruning number of a frontier node is the total number of live
// left-siblings of its ancestors (Sections 2, 4 and 5); pn is the sum
// over the ancestors passed so far, grown by one per live left-sibling
// passed over.
func (f *frontier) collectWidth(v tree.NodeID, pn, w int) {
	if !f.expanded[v] {
		f.cands = append(f.cands, candidate{node: v, pn: pn})
		return
	}
	nd := f.t.Node(v)
	live := 0
	for i := int32(0); i < nd.NumChildren; i++ {
		c := nd.FirstChild + tree.NodeID(i)
		if f.settled[c] {
			continue
		}
		if pn+live > w {
			return
		}
		f.collectWidth(c, pn+live, w)
		live++
	}
}

// selectWidth selects the frontier nodes with pruning number at most w
// (the step of Parallel SOLVE or Parallel α-β of width w). With p > 0
// it keeps only the p with the smallest pruning numbers, ties left to
// right (the fixed-processor variants).
func (f *frontier) selectWidth(w, p int) {
	f.cands = f.cands[:0]
	f.collectWidth(0, 0, w)
	if p > 0 {
		sort.SliceStable(f.cands, func(i, j int) bool { return f.cands[i].pn < f.cands[j].pn })
		if len(f.cands) > p {
			f.cands = f.cands[:p]
		}
	}
	for _, c := range f.cands {
		f.selected = append(f.selected, c.node)
	}
}

// collectLeftmost gathers the leftmost `limit` frontier nodes (the step
// of Team SOLVE or Team α-β with p processors; limit=1 gives Sequential
// SOLVE).
func (f *frontier) collectLeftmost(v tree.NodeID, limit int) {
	if len(f.selected) >= limit {
		return
	}
	if !f.expanded[v] {
		f.selected = append(f.selected, v)
		return
	}
	nd := f.t.Node(v)
	for i := int32(0); i < nd.NumChildren; i++ {
		c := nd.FirstChild + tree.NodeID(i)
		if f.settled[c] {
			continue
		}
		f.collectLeftmost(c, limit)
		if len(f.selected) >= limit {
			return
		}
	}
}

// basePath returns the path from the root to the leftmost live leaf and
// its code: per path node below the root, the number of live
// right-siblings. The root must be live.
func (f *frontier) basePath() ([]tree.NodeID, []int) {
	var path []tree.NodeID
	var code []int
	v := tree.NodeID(0)
	path = append(path, v)
	for !f.t.IsLeaf(v) {
		nd := f.t.Node(v)
		// Find the leftmost live child and count the live siblings to
		// its right.
		next := tree.None
		liveRight := 0
		for i := int32(0); i < nd.NumChildren; i++ {
			c := nd.FirstChild + tree.NodeID(i)
			if f.settled[c] {
				continue
			}
			if next == tree.None {
				next = c
			} else {
				liveRight++
			}
		}
		if next == tree.None {
			panic("core: basePath on a node with no live children")
		}
		path = append(path, next)
		code = append(code, liveRight)
		v = next
	}
	return path, code
}

// expandAll expands every node of vs.
func (f *frontier) expandAll(vs []tree.NodeID) {
	for _, v := range vs {
		f.expanded[v] = true
		f.rules.expand(v)
	}
}

// run is the step loop of every entry point. Until the root is settled,
// each step selects frontier nodes with pick, expands them, records the
// step, prunes to fixpoint and checks the step limit. When traces is
// non-nil, each step's base path, code and expanded nodes are appended
// to it.
func (f *frontier) run(opt Options, traces *[]StepTrace, pick func()) (Metrics, error) {
	var m Metrics
	for !f.rules.done() {
		var st StepTrace
		if traces != nil {
			st.BasePath, st.Code = f.basePath()
		}
		f.selected = f.selected[:0]
		pick()
		if len(f.selected) == 0 {
			return m, fmt.Errorf("core: no frontier nodes selected but root unsettled (bug)")
		}
		f.expandAll(f.selected)
		if traces != nil {
			st.Leaves = append([]tree.NodeID(nil), f.selected...)
			*traces = append(*traces, st)
		}
		if opt.RecordLeaves {
			m.Leaves = append(m.Leaves, f.selected...)
		}
		m.recordStep(len(f.selected))
		for f.rules.prune() {
		}
		if err := opt.check(m.Steps); err != nil {
			return m, err
		}
	}
	m.Value = f.rules.value()
	return m, nil
}

// width runs the width-w algorithm, restricted to p processors when
// p > 0.
func (f *frontier) width(w, p int, opt Options, traces *[]StepTrace) (Metrics, error) {
	return f.run(opt, traces, func() { f.selectWidth(w, p) })
}

// team runs the Team algorithm with p processors.
func (f *frontier) team(p int, opt Options) (Metrics, error) {
	return f.run(opt, nil, func() { f.collectLeftmost(0, p) })
}
