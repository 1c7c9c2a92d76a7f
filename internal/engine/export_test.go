package engine

// SearchBare runs the search body on a bare searcher over table: the
// sequential-plus-table reference that a one-worker pool over an equal
// table must match node for node (TestOneBodyAgreement).
func SearchBare(pos Position, depth int, table *Table) Result {
	table.Advance()
	e := &searcher{table: table}
	v, best := e.root(pos, depth, -scoreInf, scoreInf)
	return Result{Value: int32(v), Best: best, Nodes: e.nodes}
}

// TableEntries counts the live entries of t.
func TableEntries(t *Table) int {
	n := 0
	for i := 0; i < len(t.words); i += 2 {
		if t.words[i].Load()|t.words[i+1].Load() != 0 {
			n++
		}
	}
	return n
}
