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
