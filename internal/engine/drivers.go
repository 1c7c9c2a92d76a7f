package engine

import "context"

// Drivers: algorithms that own no recursion of their own and instead
// issue windowed calls to the one search body through a pool (Plaat,
// Schaeffer, Pijls & de Bruin: MTD(f), SSS* and iterative deepening are
// all loops around one memory-enhanced alpha-beta). Each builds one
// one-shot pool for its whole run, so all of them honour Workers,
// Telemetry, cancellation and the SearchOpt error contract.

// SearchIterative performs iterative deepening to maxDepth with a
// transposition table (allocated when opt.Table is nil), returning the
// final-depth result plus the principal variation (the sequence of
// best-move indices from the root). The table accelerates each deeper
// iteration via move ordering; the returned value equals a direct Search
// to maxDepth, and Nodes is summed over the iterations.
func SearchIterative(ctx context.Context, pos Position, maxDepth int, opt SearchOptions) (Result, []int, error) {
	if opt.Table == nil {
		opt.Table = NewTable(1 << 16)
	}
	p := opt.newPool()
	defer p.close()
	var last Result
	for d := 1; d <= maxDepth; d++ {
		opt.Table.Advance()
		r, err := p.search(ctx, pos, d, -scoreInf, scoreInf, false)
		if err != nil {
			return Result{}, nil, err
		}
		r.Nodes += last.Nodes
		last = r
	}
	return last, extractPV(pos, maxDepth, opt.Table, last.Best), nil
}

// MTDF implements Plaat's MTD(f): a sequence of zero-window calls that
// binary-searches the minimax value, each call re-using the shared
// transposition table (allocated when opt.Table is nil). MTD(f) is the
// memory-enhanced reformulation of Stockman's SSS* (Plaat et al. 1996),
// so together with alphabeta.SSS the repository has both faces of the
// best-first/depth-first equivalence. first is the initial guess (0 is
// fine; a previous iteration's value converges faster).
func MTDF(ctx context.Context, pos Position, depth int, first int32, opt SearchOptions) (Result, error) {
	if opt.Table == nil {
		opt.Table = NewTable(1 << 16)
	}
	opt.Table.Advance()
	p := opt.newPool()
	defer p.close()
	g := int64(first)
	lower, upper := -scoreInf, scoreInf
	out := Result{Best: -1}
	for lower < upper {
		beta := g
		if g == lower {
			beta = g + 1
		}
		r, err := p.search(ctx, pos, depth, beta-1, beta, false)
		if err != nil {
			return Result{}, err
		}
		out.Nodes += r.Nodes
		if r.Best >= 0 {
			out.Best = r.Best
		}
		if g = int64(r.Value); g < beta {
			upper = g
		} else {
			lower = g
		}
	}
	out.Value = int32(g)
	return out, nil
}

// SearchPVS evaluates pos to the given depth with principal variation
// search (NegaScout), the modern engineering form of Pearl's SCOUT (the
// paper's reference [7]): the first successor is searched with the full
// window; each later successor is first *tested* with a null window, and
// re-searched with the full window only if the test fails high. With good
// move ordering almost every test succeeds and the search visits close to
// the Knuth-Moore optimal set. It is SearchOpt with one flag set on the
// search body's child loop, and returns the same value.
func SearchPVS(ctx context.Context, pos Position, depth int, opt SearchOptions) (Result, error) {
	return opt.searchOnce(ctx, pos, depth, true)
}

// extractPV walks the transposition table from the root, following stored
// best moves, to reconstruct the principal variation. The search stores
// nothing at or below the split horizon, nor at a position that never
// transposes, so there the move comes from a direct Search of the plies
// left. The walk stops at the depth horizon, at terminal positions, or at
// a table miss.
func extractPV(pos Position, depth int, table *Table, rootBest int) []int {
	var pv []int
	cur := pos
	for d := 0; d < depth; d++ {
		moves := cur.Moves()
		if len(moves) == 0 {
			break
		}
		best := -1
		h, hashed := posNode{cur}.Key()
		switch {
		case d == 0:
			best = rootBest
		case depth-d <= splitHorizon || !hashed:
			best = Search(cur, depth-d).Best
		default:
			if _, _, _, b, hit := table.Probe(h); hit {
				best = b
			}
		}
		if best < 0 || best >= len(moves) {
			break
		}
		pv = append(pv, best)
		cur = moves[best]
	}
	return pv
}
