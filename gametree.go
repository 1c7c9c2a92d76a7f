// Package gametree is a complete Go implementation of
//
//	Richard M. Karp and Yanjun Zhang,
//	"On Parallel Evaluation of Game Trees", SPAA 1989
//	(UC Berkeley TR-89-025),
//
// covering every algorithm and model in the paper plus the substrates
// needed to exercise them:
//
//   - The leaf-evaluation model (Sections 2-4): Sequential SOLVE, Team
//     SOLVE(p) and Parallel SOLVE(w) on NOR trees; the general pruning
//     process with Sequential and Parallel alpha-beta(w) on MIN/MAX trees.
//   - The node-expansion model (Section 5): the N- variants of all four.
//   - The randomized algorithms (Section 6): the R- variants.
//   - The message-passing implementation (Section 7) with goroutine
//     processors, the six message types and the pre-emption rule.
//   - A practical goroutine engine for real games (tic-tac-toe, Connect-4,
//     Nim, Horn-clause theorem proving) built on the same cascade idea.
//   - Instance generators (worst/best case, i.i.d., near-uniform) and the
//     combinatorial bounds from the paper's analysis.
//
// This package is the public facade; see DESIGN.md for the package map and
// EXPERIMENTS.md for the reproduction of every quantitative claim.
//
// # Quick start
//
//	t := gametree.WorstCaseNOR(2, 12, 1)           // an instance of B(2,12)
//	seq, _ := gametree.SequentialSolve(t, gametree.Options{})
//	par, _ := gametree.ParallelSolve(t, 1, gametree.Options{})
//	fmt.Printf("speedup %.1f with %d processors\n",
//	        float64(seq.Steps)/float64(par.Steps), par.Processors)
package gametree

import (
	"context"

	"gametree/internal/alphabeta"
	"gametree/internal/bounds"
	"gametree/internal/core"
	"gametree/internal/engine"
	"gametree/internal/msgpass"
	"gametree/internal/pns"
	"gametree/internal/randomized"
	"gametree/internal/sched"
	"gametree/internal/telemetry"
	"gametree/internal/tree"
)

// ---------------------------------------------------------------------------
// Trees and generators (internal/tree)

// Tree is a game tree stored in a flat arena; see NewBuilder and the
// generators below for construction.
type Tree = tree.Tree

// Kind distinguishes NOR trees (Boolean AND/OR trees in NOR normal form)
// from real-valued MIN/MAX trees.
type Kind = tree.Kind

// NodeID indexes a node in a Tree.
type NodeID = tree.NodeID

// Builder constructs arbitrary trees top-down.
type Builder = tree.Builder

// LeafAssigner assigns leaf values during generation, by leaf index.
type LeafAssigner = tree.LeafAssigner

// Tree kinds.
const (
	NOR    = tree.NOR
	MinMax = tree.MinMax
)

// NewBuilder starts an explicit tree of the given kind.
func NewBuilder(kind Kind) *Builder { return tree.NewBuilder(kind) }

// Uniform builds the uniform d-ary tree of height n (the classes B(d,n)
// and M(d,n) of the paper) with leaf values from assign.
func Uniform(kind Kind, d, n int, assign LeafAssigner) *Tree {
	return tree.Uniform(kind, d, n, assign)
}

// WorstCaseNOR builds the B(d,n) member on which Sequential SOLVE must
// evaluate every leaf; rootValue selects val(root).
func WorstCaseNOR(d, n int, rootValue int32) *Tree { return tree.WorstCaseNOR(d, n, rootValue) }

// BestCaseNOR builds the B(d,n) member with maximal pruning (sequential
// work equal to the proof-tree size).
func BestCaseNOR(d, n int, rootValue int32) *Tree { return tree.BestCaseNOR(d, n, rootValue) }

// IIDNor builds a B(d,n) member with i.i.d. Bernoulli(p) leaves — the
// i.i.d. model of Section 6.
func IIDNor(d, n int, p float64, seed int64) *Tree { return tree.IIDNor(d, n, p, seed) }

// IIDMinMax builds an M(d,n) member with i.i.d. uniform leaf values.
func IIDMinMax(d, n int, lo, hi int32, seed int64) *Tree {
	return tree.IIDMinMax(d, n, lo, hi, seed)
}

// BestOrderedMinMax builds an M(d,n) member in Knuth-Moore perfect
// ordering: sequential alpha-beta evaluates exactly
// d^ceil(n/2)+d^floor(n/2)-1 leaves on it.
func BestOrderedMinMax(d, n int, seed int64) *Tree { return tree.BestOrderedMinMax(d, n, seed) }

// WorstOrderedMinMax builds an M(d,n) member in pessimal ordering.
func WorstOrderedMinMax(d, n int, seed int64) *Tree { return tree.WorstOrderedMinMax(d, n, seed) }

// NearUniform builds a tree meeting the hypotheses of Corollary 2 (degrees
// in [alpha*d, d], leaf depths in [beta*n, n]).
func NearUniform(kind Kind, d, n int, alpha, beta float64, seed int64, assign LeafAssigner) *Tree {
	return tree.NearUniform(kind, d, n, alpha, beta, seed, assign)
}

// FromNested builds a tree from nested literals; ints are leaves, []any
// are internal nodes.
func FromNested(kind Kind, spec any) *Tree { return tree.FromNested(kind, spec) }

// ParseSExpr parses a tree from "((3 5) (2 9))"-style notation.
func ParseSExpr(kind Kind, s string) (*Tree, error) { return tree.ParseSExpr(kind, s) }

// Permute returns a copy of t with every node's children independently and
// uniformly permuted.
func Permute(t *Tree, seed int64) *Tree { return tree.Permute(t, seed) }

// Skeleton builds H_T, the subtree of t spanned by the given evaluated
// leaves (Section 3), with a new-to-original node mapping.
func Skeleton(t *Tree, evaluated []NodeID) (*Tree, []NodeID) { return tree.Skeleton(t, evaluated) }

// ProofTreeSize returns the size of a smallest proof tree of a NOR tree
// (the Fact 1 certificate).
func ProofTreeSize(t *Tree) int64 { return tree.ProofTreeSize(t) }

// ---------------------------------------------------------------------------
// Leaf-evaluation model (internal/core)

// Metrics reports a simulated run in either cost model: steps (time),
// work (leaves evaluated, or nodes expanded by the N- and R- functions),
// processors (max units per step) and the per-degree step histogram.
type Metrics = core.Metrics

// Options configures a simulated run in either cost model.
type Options = core.Options

// SequentialSolve runs the left-to-right sequential algorithm on a NOR
// tree: one leftmost live leaf per step.
func SequentialSolve(t *Tree, opt Options) (Metrics, error) { return core.SequentialSolve(t, opt) }

// TeamSolve evaluates the leftmost p live leaves per step (Proposition 1:
// Theta(sqrt(p)) speedup).
func TeamSolve(t *Tree, p int, opt Options) (Metrics, error) { return core.TeamSolve(t, p, opt) }

// ParallelSolve evaluates all live leaves with pruning number at most w
// per step (Theorem 1: width 1 gives a linear speedup with n+1 processors
// on B(d,n)).
func ParallelSolve(t *Tree, w int, opt Options) (Metrics, error) {
	return core.ParallelSolve(t, w, opt)
}

// SequentialAlphaBeta runs the alpha-beta pruning procedure on a MIN/MAX
// tree in the leaf-evaluation model.
func SequentialAlphaBeta(t *Tree, opt Options) (Metrics, error) {
	return core.SequentialAlphaBeta(t, opt)
}

// ParallelAlphaBeta runs Parallel alpha-beta of width w (Theorem 3).
func ParallelAlphaBeta(t *Tree, w int, opt Options) (Metrics, error) {
	return core.ParallelAlphaBeta(t, w, opt)
}

// ---------------------------------------------------------------------------
// Node-expansion model (internal/core, Section 5)

// NSequentialSolve expands the leftmost frontier node per step.
func NSequentialSolve(t *Tree, opt Options) (Metrics, error) {
	return core.NSequentialSolve(t, opt)
}

// NParallelSolve expands all frontier nodes with pruning number at most w
// per step (Theorem 4).
func NParallelSolve(t *Tree, w int, opt Options) (Metrics, error) {
	return core.NParallelSolve(t, w, opt)
}

// NSequentialAlphaBeta is the node-expansion alpha-beta procedure.
func NSequentialAlphaBeta(t *Tree, opt Options) (Metrics, error) {
	return core.NSequentialAlphaBeta(t, opt)
}

// NParallelAlphaBeta is the node-expansion Parallel alpha-beta of width w.
func NParallelAlphaBeta(t *Tree, w int, opt Options) (Metrics, error) {
	return core.NParallelAlphaBeta(t, w, opt)
}

// ---------------------------------------------------------------------------
// Randomized algorithms (internal/randomized)

// RSequentialSolve runs the randomized sequential SOLVE (random depth-first
// order); returns the value and the expansions used.
func RSequentialSolve(t *Tree, seed int64) (int32, int64) {
	return randomized.RSequentialSolve(t, seed)
}

// RParallelSolve runs R-Parallel SOLVE of width w (Theorem 5).
func RParallelSolve(t *Tree, w int, seed int64, opt Options) (Metrics, error) {
	return randomized.RParallelSolve(t, w, seed, opt)
}

// RSequentialAlphaBeta runs the randomized sequential alpha-beta.
func RSequentialAlphaBeta(t *Tree, seed int64) (int32, int64) {
	return randomized.RSequentialAlphaBeta(t, seed)
}

// RParallelAlphaBeta runs R-Parallel alpha-beta of width w (Theorem 6).
func RParallelAlphaBeta(t *Tree, w int, seed int64, opt Options) (Metrics, error) {
	return randomized.RParallelAlphaBeta(t, w, seed, opt)
}

// ---------------------------------------------------------------------------
// Message-passing implementation (internal/msgpass, Section 7)

// MsgPassOptions configures the Section 7 message-passing run.
type MsgPassOptions = msgpass.Options

// MsgPassMetrics reports a message-passing run.
type MsgPassMetrics = msgpass.Metrics

// EvaluateMessagePassing runs the Section 7 implementation of N-Parallel
// SOLVE of width 1 on a binary NOR tree, with one goroutine processor per
// level (or per zone when Options.Processors is set).
func EvaluateMessagePassing(t *Tree, opt MsgPassOptions) (MsgPassMetrics, error) {
	return msgpass.Evaluate(t, opt)
}

// ---------------------------------------------------------------------------
// Classic baselines (internal/alphabeta)

// BaselineResult reports a classic recursive search: the value and the
// leaves evaluated.
type BaselineResult = alphabeta.Result

// Minimax evaluates a tree exhaustively.
func Minimax(t *Tree) BaselineResult { return alphabeta.Minimax(t) }

// AlphaBeta evaluates a MIN/MAX tree with classical recursive alpha-beta.
func AlphaBeta(t *Tree) BaselineResult { return alphabeta.AlphaBeta(t) }

// Scout evaluates a MIN/MAX tree with Pearl's SCOUT.
func Scout(t *Tree) BaselineResult { return alphabeta.Scout(t) }

// ---------------------------------------------------------------------------
// Engine for real games (internal/engine)

// Position is a game state searchable by the engine (negamax convention).
type Position = engine.Position

// MoveAppender is an optional Position extension: games that implement it
// let the engine recycle per-worker move buffers instead of allocating a
// fresh slice at every node (TTT, Connect4 and Domineering opt in).
type MoveAppender = engine.MoveAppender

// SearchResult reports an engine search.
type SearchResult = engine.Result

// ErrSearchCancelled is returned (with a zero SearchResult) by every
// engine search whose context ends it; when the context's deadline did,
// the error additionally wraps context.DeadlineExceeded.
var ErrSearchCancelled = engine.ErrCancelled

// ErrSearchPanic is returned (wrapped, carrying the recovered value) when
// a Position implementation panics inside a pooled search: the panic is
// confined to the worker that hit it instead of crashing the process.
var ErrSearchPanic = engine.ErrSearchPanic

// Search evaluates pos to the given depth sequentially.
func Search(pos Position, depth int) SearchResult { return engine.Search(pos, depth) }

// SearchParallel evaluates pos using the width-style cascade over up to
// `workers` goroutines (0 = GOMAXPROCS); it returns exactly Search's value.
func SearchParallel(ctx context.Context, pos Position, depth, workers int) (SearchResult, error) {
	return engine.SearchOpt(ctx, pos, depth, EngineOptions{Workers: workers})
}

// SearchOpt is the one options entry point of the engine: the same search
// as Search and SearchParallel with an optional shared transposition
// table, a worker count (0 = GOMAXPROCS; 1 runs on the calling goroutine
// and visits exactly the sequential node set) and an optional telemetry
// recorder.
func SearchOpt(ctx context.Context, pos Position, depth int, opt EngineOptions) (SearchResult, error) {
	return engine.SearchOpt(ctx, pos, depth, opt)
}

// Play returns the index of the best root move.
func Play(ctx context.Context, pos Position, depth, workers int) (int, error) {
	return engine.Play(ctx, pos, depth, workers)
}

// ---------------------------------------------------------------------------
// Bounds (internal/bounds)

// Fact1 returns the d^floor(n/2) lower bound on total work for B(d,n).
func Fact1(d, n int) int64 {
	v := bounds.Fact1(d, n)
	if !v.IsInt64() {
		return -1
	}
	return v.Int64()
}

// Fact2 returns the d^floor(n/2)+d^ceil(n/2)-1 lower bound for M(d,n)
// (also the Knuth-Moore optimal alpha-beta leaf count).
func Fact2(d, n int) int64 {
	v := bounds.Fact2(d, n)
	if !v.IsInt64() {
		return -1
	}
	return v.Int64()
}

// CriticalBias returns the root of x^d + x - 1 = 0, the hardest i.i.d.
// leaf bias for uniform d-ary NOR trees; (sqrt(5)-1)/2 for d = 2.
func CriticalBias(d int) float64 { return bounds.CriticalBias(d) }

// ---------------------------------------------------------------------------
// Additional algorithms and utilities

// SSS evaluates a MIN/MAX tree with Stockman's SSS* best-first search (the
// baseline of the paper's reference [11]); it dominates AlphaBeta on trees
// with distinct leaf values.
func SSS(t *Tree) BaselineResult { return alphabeta.SSS(t) }

// AndOrToNOR converts a Boolean AND/OR tree (MinMax kind, 0/1 leaves) to
// its NOR representation (Section 2); the NOR root evaluates to the
// complement of the AND/OR root.
func AndOrToNOR(t *Tree) *Tree { return tree.AndOrToNOR(t) }

// NORToAndOr is the inverse conversion.
func NORToAndOr(t *Tree) *Tree { return tree.NORToAndOr(t) }

// EvaluateMessagePassingAlphaBeta runs the message-passing width-1
// Parallel alpha-beta machine (the Section 7 construction carried over to
// MIN/MAX trees) on a binary MIN/MAX tree.
func EvaluateMessagePassingAlphaBeta(t *Tree, opt MsgPassOptions) (MsgPassMetrics, error) {
	return msgpass.EvaluateAlphaBeta(t, opt)
}

// ParallelSolveFixed runs Parallel SOLVE of width w restricted to p
// processors (the leaf-model counterpart of Section 7's fixed-p remark):
// of the width-w candidates, the p with the smallest pruning numbers are
// evaluated each step. p <= 0 means unrestricted.
func ParallelSolveFixed(t *Tree, w, p int, opt Options) (Metrics, error) {
	return core.ParallelSolveFixed(t, w, p, opt)
}

// ParallelAlphaBetaFixed is the MIN/MAX counterpart of ParallelSolveFixed.
func ParallelAlphaBetaFixed(t *Tree, w, p int, opt Options) (Metrics, error) {
	return core.ParallelAlphaBetaFixed(t, w, p, opt)
}

// StepTrace records one instrumented step of Parallel SOLVE: the base
// path, its Proposition 3 code, and the evaluated leaves.
type StepTrace = core.StepTrace

// TraceParallelSolve runs Parallel SOLVE of width w recording, for every
// step, the base path and its code — the proof objects of Proposition 3.
func TraceParallelSolve(t *Tree, w int, opt Options) ([]StepTrace, Metrics, error) {
	return core.TraceParallelSolve(t, w, opt)
}

// CompareCodes compares two base-path codes lexicographically (-1, 0, +1),
// zero-padding the shorter one.
func CompareCodes(a, b []int) int { return core.CompareCodes(a, b) }

// ---------------------------------------------------------------------------
// Engine extensions

// TranspositionTable is a fixed-size lock-free table shared between search
// goroutines; positions opt in by implementing Hasher.
type TranspositionTable = engine.Table

// Hasher marks positions that can hash themselves, enabling the
// transposition table.
type Hasher = engine.Hasher

// EngineOptions configures SearchOpt and the three drivers over it
// (SearchIterative, MTDF, SearchPVS): Table, Workers and Telemetry. How
// the engine splits work and uses the table is not configurable —
// subtrees of two ply or less are plain alpha-beta, searched in place
// with no table traffic, and a worker opens a split point only when its
// own deque has drained.
type EngineOptions = engine.SearchOptions

// NewTranspositionTable sizes a table for at least the given number of
// entries (rounded up to a power of two). The size is a capacity: the
// table's memory, 16 bytes per entry, is allocated on its first store, so
// a table searched only with positions that never transpose holds none.
func NewTranspositionTable(entries int) *TranspositionTable { return engine.NewTable(entries) }

// EnginePool is a resident work-stealing search pool: the worker set of
// SearchOpt kept alive across searches, so a long-lived caller
// (such as the gtserve service) pays pool construction once instead of
// per request. One pool runs one search at a time; several pools may
// share one TranspositionTable.
type EnginePool = engine.Pool

// NewEnginePool builds a resident pool of workers (0 = GOMAXPROCS) over
// table (nil disables the transposition table).
func NewEnginePool(workers int, table *TranspositionTable, rec *TelemetryRecorder) *EnginePool {
	return engine.NewPool(workers, table, rec)
}

// SearchIterative performs iterative deepening with a transposition table
// and returns the final result plus the principal variation.
func SearchIterative(ctx context.Context, pos Position, maxDepth int, opt EngineOptions) (SearchResult, []int, error) {
	return engine.SearchIterative(ctx, pos, maxDepth, opt)
}

// StationaryBias returns the fixed point of the NOR level map
// q -> (1-q)^d: the i.i.d. leaf bias under which the value distribution of
// a uniform d-ary NOR tree is the same at every height (the genuinely
// hard i.i.d. regime). It equals 1 - CriticalBias(d) via the Section 2
// complementation.
func StationaryBias(d int) float64 { return bounds.StationaryBias(d) }

// ExpectedSolveWork returns the exact expected number of leaves Sequential
// SOLVE evaluates on B(d,n) with i.i.d. Bernoulli(p) leaves (a two-state
// dynamic program over the height).
func ExpectedSolveWork(d, n int, p float64) float64 { return bounds.ExpectedSolveWork(d, n, p) }

// RootOneProbability returns P(val(T)=1) for T in B(d,n) with Bernoulli(p)
// leaves.
func RootOneProbability(d, n int, p float64) float64 { return bounds.RootOneProbability(d, n, p) }

// BinarizeNOR rewrites a d-ary NOR tree as an equivalent strictly binary
// NOR tree (using NOT/OR gadgets with constant 0-leaves), so any tree can
// drive the Section 7 message-passing machine.
func BinarizeNOR(t *Tree) *Tree { return tree.BinarizeNOR(t) }

// TeamAlphaBeta evaluates the leftmost p unfinished leaves of the pruned
// tree per step — the MIN/MAX counterpart of TeamSolve.
func TeamAlphaBeta(t *Tree, p int, opt Options) (Metrics, error) {
	return core.TeamAlphaBeta(t, p, opt)
}

// NTeamSolve expands the leftmost p frontier nodes per step — the
// node-expansion counterpart of TeamSolve.
func NTeamSolve(t *Tree, p int, opt Options) (Metrics, error) {
	return core.NTeamSolve(t, p, opt)
}

// TraceParallelAlphaBeta is the MIN/MAX counterpart of TraceParallelSolve.
func TraceParallelAlphaBeta(t *Tree, w int, opt Options) ([]StepTrace, Metrics, error) {
	return core.TraceParallelAlphaBeta(t, w, opt)
}

// SearchPVS evaluates pos with principal variation search (NegaScout, the
// modern form of SCOUT); same value as Search. Cancelling ctx returns
// ErrSearchCancelled within the engine's node-poll budget.
func SearchPVS(ctx context.Context, pos Position, depth int, opt EngineOptions) (SearchResult, error) {
	return engine.SearchPVS(ctx, pos, depth, opt)
}

// MTDF evaluates pos with Plaat's MTD(f) — zero-window searches driven by
// the transposition table, the depth-first reformulation of SSS*. first
// is the initial guess of the value.
func MTDF(ctx context.Context, pos Position, depth int, first int32, opt EngineOptions) (SearchResult, error) {
	return engine.MTDF(ctx, pos, depth, first, opt)
}

// WidthProcessorBound returns sum_{k<=w} C(n,k)(d-1)^k, the maximum
// parallel degree Parallel SOLVE of width w can reach on a uniform d-ary
// tree of height n (the O(n^w) processor count of the paper's
// conclusion). Returns -1 if it overflows int64.
func WidthProcessorBound(d, n, w int) int64 {
	v := bounds.WidthProcessorBound(d, n, w)
	if !v.IsInt64() {
		return -1
	}
	return v.Int64()
}

// Profile is the per-step parallel-degree sequence of a simulated run,
// replayable under any finite processor count (ceil(degree/P) time per
// step — greedy list scheduling, bounded by Brent's theorem).
type Profile = sched.Profile

// ProfileOf extracts a replayable Profile from a run's metrics.
func ProfileOf(m Metrics) Profile { return sched.FromMetrics(m) }

// RScout runs the randomized SCOUT variant of the paper's Section 6
// closing remark (children visited in random order in both test and
// evaluation phases); returns the value and leaf evaluations used.
func RScout(t *Tree, seed int64) (int32, int64) { return randomized.RScout(t, seed) }

// ---------------------------------------------------------------------------
// Search telemetry (internal/telemetry)

// TelemetryRecorder collects per-worker search counters (tasks, steals,
// splits, aborts, transposition-table traffic) and, when tracing is
// enabled, split-point lifetime spans writable as Chrome trace_event
// JSON. Attach one via EngineOptions.Telemetry; a nil recorder means
// telemetry off and costs the engine one branch per event.
type TelemetryRecorder = telemetry.Recorder

// TelemetrySnapshot is a point-in-time view of a recorder's counters.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryReport is the condensed, JSON-serialisable form of a snapshot:
// steal efficiency, abort-drain latency, TT hit rate, load skew.
type TelemetryReport = telemetry.Report

// NewTelemetryRecorder returns an empty recorder with tracing off.
func NewTelemetryRecorder() *TelemetryRecorder { return telemetry.NewRecorder() }

// ---------------------------------------------------------------------------
// Proof-number solver (internal/pns)

// ProofVerdict is the outcome of a proof-number solve: whether the side
// to move at the root wins (Proven), loses (Disproven), or the solve
// stopped first (Unknown).
type ProofVerdict = pns.Verdict

// Proof-number verdicts.
const (
	ProofUnknown   = pns.Unknown
	ProofProven    = pns.Proven
	ProofDisproven = pns.Disproven
)

// ProofOptions configures a proof-number solve: optional shared
// TranspositionTable (proof/disproof numbers pack into the standard
// entry layout, so solvers and alpha-beta searches share one table),
// MaxNodes tree-node budget, and PN2Budget enabling the two-level PN²
// variant in sequential solves.
type ProofOptions = pns.Options

// ProofResult reports a solve: verdict, root proof/disproof numbers and
// work counters.
type ProofResult = pns.Result

// ProofSolver holds the solve state for one root position; it is
// retained across calls, so a budget- or deadline-stopped solve resumes
// where it left off.
type ProofSolver = pns.Solver

// NewProofSolver builds a solver for pos (implement Hasher on the
// position for transposition-table sharing).
func NewProofSolver(pos Position, opt ProofOptions) *ProofSolver { return pns.New(pos, opt) }

// SolvePN runs sequential proof-number search (PN² when
// ProofOptions.PN2Budget is set) to a verdict, budget stop or
// cancellation.
func SolvePN(ctx context.Context, pos Position, opt ProofOptions) (ProofResult, error) {
	return pns.New(pos, opt).Solve(ctx)
}

// SolveParallel runs proof-number search on the resident workers of an
// EnginePool: concurrent most-proving-node descents steered apart by
// virtual proof numbers, with real numbers deciding the verdict. With
// one worker it expands exactly the sequential PN node sequence.
func SolveParallel(ctx context.Context, pool *EnginePool, pos Position, opt ProofOptions) (ProofResult, error) {
	s := pns.New(pos, opt)
	return s.SolveParallel(ctx, pool)
}
