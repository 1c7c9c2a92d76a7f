package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"gametree/internal/games"
)

// op is one operation of a workload: a position to search or solve. The
// serve layer's position strings name every game the benchmark uses, so
// one shape covers library calls, HTTP requests and ring fan-outs.
type op struct {
	Game  string `json:"game"`
	Pos   string `json:"position"`
	Depth int    `json:"depth,omitempty"` // 0 for solves
	// Key indexes the distinct (game, position, depth) this op names;
	// repeats share a key, and with it one expected answer.
	Key int `json:"key"`
}

// workload is the static description of one benchmark workload.
type workload struct {
	name string
	why  string
	// ops is the length of a round's op list at full size.
	ops int
	// gen builds the op list from a seeded source.
	gen func(rng *rand.Rand, n int) []op
	// kind selects the driver: "lib", "search", "ring" or "solve".
	kind string
	// table sizes the library workloads' transposition table (0 = none).
	table int
}

var workloads = []workload{
	{
		name: "lib_tree", kind: "lib", ops: 80, gen: genTree(10),
		why: "engine.Pool.Search on seeded RandomTree roots, no table: movegen and eval are a hash mix, so the search body and Pool split/steal/join do all the work",
	},
	{
		name: "lib_connect4", kind: "lib", ops: 480, table: 1 << 20, gen: genConnect4,
		why: "engine.Pool.Search with one shared Table on seeded Connect-4 openings: Drop/Evaluate/Hash allocation dominates and the table is read warm; the scheduler is nearly invisible",
	},
	{
		name: "serve_hot", kind: "search", ops: 2400, gen: genHot,
		why: "POST /v1/search over loopback, 75% from a 32-position hot set: the median request is a cache hit, p95 is admission plus a small search on resident pools",
	},
	{
		name: "ring_cold", kind: "ring", ops: 320, gen: genTree(8),
		why: "the same requests with no repeats and the cache off through coordinator + 2 TCP shard workers: expand, route, codec, framing, RTT, worker queue and fold do the work",
	},
	{
		name: "solve_mix", kind: "solve", ops: 1029, gen: genSolve,
		why: "POST /v1/solve on every small Nim and Kayles position, smallest first, 25% repeats, verdicts checked against Sprague-Grundy: pns and the solve twin of the serve pipeline do the work",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildOps generates the workload's op list for seed. smoke cuts the list
// to 1/50 for the self-test. The same (workload, seed, smoke) always gives
// the same list; the program under test sees only the list.
func buildOps(w workload, seed int64, smoke bool) []op {
	n := w.ops
	if smoke {
		n = max(n/50, 6)
	}
	// The workload name is folded into the seed so that two workloads
	// sharing a generator (lib_tree, ring_cold) do not share positions.
	var h int64
	for _, c := range w.name {
		h = h*131 + int64(c)
	}
	return w.gen(rand.New(rand.NewSource(seed*1_000_003+h)), n)
}

// keyed assigns Key by first appearance.
func keyed(ops []op) []op {
	seen := map[string]int{}
	for i := range ops {
		id := ops[i].Game + "|" + ops[i].Pos + "|" + strconv.Itoa(ops[i].Depth)
		k, ok := seen[id]
		if !ok {
			k = len(seen)
			seen[id] = k
		}
		ops[i].Key = k
	}
	return ops
}

func numKeys(ops []op) int {
	n := 0
	for _, o := range ops {
		n = max(n, o.Key+1)
	}
	return n
}

func randomRoot(rng *rand.Rand) string { return fmt.Sprintf("%d:5", rng.Uint64()) }

// genTree: n never-repeated RandomTree roots of branch 5.
func genTree(depth int) func(*rand.Rand, int) []op {
	return func(rng *rand.Rand, n int) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{Game: "random", Pos: randomRoot(rng), Depth: depth}
		}
		return keyed(ops)
	}
}

// connect4Plies is the length of every Connect-4 opening. It is one
// number, not a range, because the rounds share a transposition table: a
// Connect-4 position shows its ply in its disc count, so with one opening
// length and one search depth every position is always met at the same
// remaining depth, table hits return exactly the fixed-depth value, and
// the answer to an op does not depend on what was searched before it.
const connect4Plies = 6

// genConnect4: random legal openings of connect4Plies plies from the empty
// 7x6 board, rejecting lines that end the game, searched to depth 6.
func genConnect4(rng *rand.Rand, n int) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		p := games.StandardConnect4()
		var sb strings.Builder
		for i := 0; i < connect4Plies && p != nil; i++ {
			c := rng.Intn(7)
			sb.WriteByte(byte('0' + c))
			p = p.Drop(c)
		}
		if p == nil || len(p.Moves()) == 0 {
			continue
		}
		ops = append(ops, op{Game: "connect4", Pos: sb.String(), Depth: 6})
	}
	return keyed(ops)
}

// genHot: 75% of requests from a 32-position hot set, 25% never repeated.
func genHot(rng *rand.Rand, n int) []op {
	hot := make([]string, 32)
	for i := range hot {
		hot[i] = randomRoot(rng)
	}
	ops := make([]op, n)
	for i := range ops {
		pos := randomRoot(rng)
		if rng.Intn(4) != 0 {
			pos = hot[rng.Intn(len(hot))]
		}
		ops[i] = op{Game: "random", Pos: pos, Depth: 8}
	}
	return keyed(ops)
}

// multisets appends every non-decreasing sequence of `parts` values in
// lo..hi to out: the distinct positions of a game that ignores heap order.
func multisets(out [][]int, parts, lo, hi int, prefix []int) [][]int {
	if parts == 0 {
		return append(out, append([]int(nil), prefix...))
	}
	for v := lo; v <= hi; v++ {
		out = multisets(out, parts-1, v, hi, append(prefix, v))
	}
	return out
}

// genSolve: every Nim position of 3 or 4 heaps of 1..9 and every Kayles
// position of 2 or 3 rows of 1..7 (772 in all), once each, smallest first
// (by objects left; seeded order among equals, seeded heap order), then one
// repeat of an earlier request after every third.
//
// The whole range in growing order, rather than a random sample of it,
// because a server shares one table among its solves. In random order a
// round's work was the cost of the few large positions that happened to
// come before their sub-positions were in the table: it moved by a factor
// of three from seed to seed, and parallel PNS made even one such solve
// irreproducible (the same position took 220 ms and 450 ms). Smallest
// first, every solve finds its smaller positions solved, as a prover's
// table does once it has been up for a while, and costs a few expansions.
// n only matters when it cuts the list short (the smoke run).
func genSolve(rng *rand.Rand, n int) []op {
	type position struct {
		game  string
		parts []int
		total int
	}
	var all []position
	for _, g := range []struct {
		game          string
		parts, lo, hi int
	}{{"nim", 3, 1, 9}, {"nim", 4, 1, 9}, {"kayles", 2, 1, 7}, {"kayles", 3, 1, 7}} {
		for _, m := range multisets(nil, g.parts, g.lo, g.hi, nil) {
			total := 0
			for _, v := range m {
				total += v
			}
			rng.Shuffle(len(m), func(i, j int) { m[i], m[j] = m[j], m[i] })
			all = append(all, position{g.game, m, total})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	sort.SliceStable(all, func(i, j int) bool { return all[i].total < all[j].total })
	ops := make([]op, 0, n)
	for i := 0; len(ops) < n && i < len(all); i++ {
		f := make([]string, len(all[i].parts))
		for j, v := range all[i].parts {
			f[j] = strconv.Itoa(v)
		}
		ops = append(ops, op{Game: all[i].game, Pos: strings.Join(f, ",")})
		if i%3 == 2 && len(ops) < n {
			ops = append(ops, ops[rng.Intn(len(ops))])
		}
	}
	return keyed(ops)
}
