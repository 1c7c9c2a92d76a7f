package msgpass

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"gametree/internal/telemetry"
	"gametree/internal/tree"
)

// This file extends the Section 7 message-passing machine to MIN/MAX
// trees. The paper notes that "Sequential α-β and Parallel α-β can also
// be converted into their node-expansion versions" and that the same
// implementation strategy applies, but — "given the space limitation" —
// does not present it; this is that conversion, engineered to mirror the
// SOLVE machine exactly:
//
//	S-AB*(v, α, β)        sequential alpha-beta DFS on the subtree at v
//	P-AB*(v, α, β)        width-1 parallel coordination at v
//	P-AB**(v, α, β)       as P-AB*, v expanded, both child values pending
//	P-AB***(v, α, β, l)   as P-AB*, v expanded, left child resolved to l
//	val(v) = x            value report to the level above
//
// Each invocation carries its alpha-beta window. The left child of a
// coordinated node is searched in parallel with the *speculative* right
// child, which runs under the window as of spawn time (wider than the
// sequential algorithm would use — always sound, merely less sharp). When
// the left child resolves without a cutoff the right child is promoted to
// a parallel search with the sharpened window, converting its DFS stack
// into the cascade exactly as in the SOLVE machine. The pre-emption rule
// and the one-processor-per-level allocation (with zones for fixed p) are
// unchanged. Windows only ever tighten for a given node, and a value
// computed under a wider window is at least as informative, so stale
// value messages remain safe to match by node identity.

const (
	abNegInf = int64(math.MinInt32) - 1
	abPosInf = int64(math.MaxInt32) + 1
)

// abMsgType enumerates the MIN/MAX machine's message types.
type abMsgType uint8

const (
	abSSolve  abMsgType = iota // S-AB*(v, alpha, beta)
	abPSolve                   // P-AB*(v, alpha, beta)
	abPSolve2                  // P-AB**(v, alpha, beta)
	abPSolve3                  // P-AB***(v, alpha, beta, lval)
	abVal                      // val(v) = x
)

type abMessage struct {
	typ         abMsgType
	v           tree.NodeID
	alpha, beta int64
	val         int64
}

// abMailbox is the unbounded queue (same design as the Boolean machine).
type abMailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []abMessage
	halted bool
}

func newABMailbox() *abMailbox {
	mb := &abMailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *abMailbox) send(m abMessage) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	mb.cond.Signal()
}

func (mb *abMailbox) halt() {
	mb.mu.Lock()
	mb.halted = true
	mb.mu.Unlock()
	mb.cond.Signal()
}

func (mb *abMailbox) drain(wait bool) ([]abMessage, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for wait && len(mb.queue) == 0 && !mb.halted {
		mb.cond.Wait()
	}
	msgs := mb.queue
	mb.queue = nil
	return msgs, mb.halted
}

// abFrame is a DFS frame of S-AB*: the node, the evaluation stage
// (0: about to expand, 1: in the left child, 2: left done, in the right
// child), the node's window and the left child's resolved value.
type abFrame struct {
	node        tree.NodeID
	stage       int8
	alpha, beta int64
	lval        int64
}

type abSState struct {
	root  tree.NodeID
	stack []abFrame
}

// abPState is a P-AB*/**/*** invocation.
type abPState struct {
	v           tree.NodeID
	w, x        tree.NodeID
	alpha, beta int64
	lval, rval  int64
	lok, rok    bool
}

type abLevelState struct {
	s *abSState
	p *abPState
}

type abRun struct {
	t          *tree.Tree
	procs      []*abProcessor
	nprocs     int
	rootResult chan int64
	rootSent   atomic.Bool // the root value is out: every processor stops
	expansions atomic.Int64
	messages   atomic.Int64
	workSpin   int

	// reported[v]: val(v) has been sent upward. See the SOLVE machine's
	// field of the same name: the asynchronous realization needs this
	// staleness test on invocation messages, which the paper's
	// synchronous network provides implicitly.
	reported []atomic.Bool
}

func (r *abRun) markReported(v tree.NodeID) { r.reported[v].Store(true) }

func (r *abRun) stale(v tree.NodeID) bool {
	for x := v; x != tree.None; x = r.t.Node(x).Parent {
		if r.reported[x].Load() {
			return true
		}
	}
	return false
}

type abProcessor struct {
	r      *abRun
	id     int
	mb     *abMailbox
	sh     *telemetry.Shard // this processor's message counters
	levels map[int]*abLevelState
	owned  []int
	next   int
}

// send counts the message against this processor's shard and routes it.
func (p *abProcessor) send(level int, m abMessage) {
	p.sh.MsgsSent.Add(1)
	p.r.send(level, m)
}

// EvaluateAlphaBeta runs the message-passing width-1 Parallel alpha-beta
// on a binary MIN/MAX tree and returns the exact root value with run
// statistics.
func EvaluateAlphaBeta(t *tree.Tree, opt Options) (Metrics, error) {
	if t.Kind != tree.MinMax {
		return Metrics{}, errors.New("msgpass: EvaluateAlphaBeta requires a MinMax tree")
	}
	for i := range t.Nodes {
		if nc := t.Nodes[i].NumChildren; nc != 0 && nc != 2 {
			return Metrics{}, fmt.Errorf("msgpass: node %d has %d children; the machine requires a binary tree", i, nc)
		}
	}
	np := opt.Processors
	if np <= 0 || np > t.Height+1 {
		np = t.Height + 1
	}
	r := &abRun{
		t:          t,
		nprocs:     np,
		rootResult: make(chan int64, 1),
		workSpin:   opt.WorkPerExpansion,
		reported:   make([]atomic.Bool, t.Len()),
	}
	rec := opt.Telemetry
	if rec == nil {
		rec = telemetry.NewRecorder()
	}
	r.procs = make([]*abProcessor, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		p := &abProcessor{r: r, id: i, mb: newABMailbox(), sh: rec.Shard(i), levels: map[int]*abLevelState{}}
		for lvl := i; lvl <= t.Height; lvl += np {
			p.owned = append(p.owned, lvl)
		}
		r.procs[i] = p
	}
	base := make([]ProcStats, np)
	for i, p := range r.procs {
		base[i] = ProcStats{
			Sent:         p.sh.MsgsSent.Load(),
			Received:     p.sh.MsgsRecv.Load(),
			StaleDropped: p.sh.MsgsStale.Load(),
		}
	}
	for i := 0; i < np; i++ {
		wg.Add(1)
		go func(p *abProcessor) {
			defer wg.Done()
			p.loop()
		}(r.procs[i])
	}
	r.send(0, abMessage{typ: abPSolve, v: t.Root(), alpha: abNegInf, beta: abPosInf})
	val := <-r.rootResult
	for _, p := range r.procs {
		p.mb.halt()
	}
	wg.Wait()
	m := Metrics{
		Value:      int32(val),
		Expansions: r.expansions.Load(),
		Messages:   r.messages.Load(),
		Processors: np,
	}
	m.PerProcessor = make([]ProcStats, np)
	for i, p := range r.procs {
		m.PerProcessor[i] = ProcStats{
			Sent:         p.sh.MsgsSent.Load() - base[i].Sent,
			Received:     p.sh.MsgsRecv.Load() - base[i].Received,
			StaleDropped: p.sh.MsgsStale.Load() - base[i].StaleDropped,
		}
	}
	return m, nil
}

// abDebugHook, when set, observes every message at send time (test-only).
var abDebugHook func(level int, m abMessage)

func (r *abRun) send(level int, m abMessage) {
	r.messages.Add(1)
	if abDebugHook != nil {
		abDebugHook(level, m)
	}
	if level < 0 {
		if m.typ != abVal {
			panic("msgpass: only val messages go to the coordinator")
		}
		r.rootSent.Store(true)
		select {
		case r.rootResult <- m.val:
		default:
		}
		return
	}
	r.procs[level%r.nprocs].mb.send(m)
}

func (r *abRun) expand() {
	r.expansions.Add(1)
	if r.workSpin > 0 {
		spin(r.workSpin)
	}
}

// loop runs the processor until the root value is sent; see the SOLVE
// machine's loop.
func (p *abProcessor) loop() {
	for {
		msgs, halted := p.mb.drain(!p.hasWork())
		if halted {
			return
		}
		for _, m := range msgs {
			p.sh.MsgsRecv.Add(1)
			p.handle(m)
			if p.r.rootSent.Load() {
				return
			}
		}
		p.stepWork()
		if p.r.rootSent.Load() {
			return
		}
	}
}

func (p *abProcessor) hasWork() bool {
	for _, ls := range p.levels {
		if ls.s != nil {
			return true
		}
	}
	return false
}

func (p *abProcessor) state(level int) *abLevelState {
	ls := p.levels[level]
	if ls == nil {
		ls = &abLevelState{}
		p.levels[level] = ls
	}
	return ls
}

func (p *abProcessor) handle(m abMessage) {
	t := p.r.t
	if m.typ != abVal && p.r.stale(m.v) {
		p.sh.MsgsStale.Add(1)
		return // superseded invocation: an ancestor's value is already out
	}
	switch m.typ {
	case abSSolve:
		ls := p.state(t.Depth(m.v))
		if ls.p != nil && ls.p.v == m.v {
			return // a P-invocation owns this node
		}
		ls.s = &abSState{root: m.v, stack: []abFrame{{node: m.v, alpha: m.alpha, beta: m.beta}}}
	case abPSolve:
		p.startP(m)
	case abPSolve2:
		p.startPVariant(m, false)
	case abPSolve3:
		p.startPVariant(m, true)
	case abVal:
		p.handleVal(m.v, m.val)
	}
}

func (p *abProcessor) startP(m abMessage) {
	t := p.r.t
	v := m.v
	level := t.Depth(v)
	ls := p.state(level)
	if ls.s != nil && ls.s.root == v {
		p.handoff(ls.s)
		ls.s = nil
		return
	}
	p.r.expand()
	nd := t.Node(v)
	if nd.NumChildren == 0 {
		p.r.markReported(v)
		p.send(level-1, abMessage{typ: abVal, v: v, val: int64(nd.Value)})
		ls.p = nil
		return
	}
	w, x := nd.FirstChild, nd.FirstChild+1
	ls.p = &abPState{v: v, w: w, x: x, alpha: m.alpha, beta: m.beta}
	p.send(level+1, abMessage{typ: abPSolve, v: w, alpha: m.alpha, beta: m.beta})
	p.send(level+1, abMessage{typ: abSSolve, v: x, alpha: m.alpha, beta: m.beta})
}

func (p *abProcessor) startPVariant(m abMessage, haveLeft bool) {
	t := p.r.t
	nd := t.Node(m.v)
	if nd.NumChildren == 0 {
		p.r.markReported(m.v)
		p.send(t.Depth(m.v)-1, abMessage{typ: abVal, v: m.v, val: int64(nd.Value)})
		return
	}
	ls := p.state(t.Depth(m.v))
	st := &abPState{v: m.v, w: nd.FirstChild, x: nd.FirstChild + 1, alpha: m.alpha, beta: m.beta}
	if haveLeft {
		st.lval, st.lok = m.val, true
	}
	ls.p = st
	if ls.s != nil && ls.s.root == m.v {
		ls.s = nil
	}
}

// handoff converts an in-progress S-AB* DFS into cascade invocations,
// carrying each path node's window (and, on right turns, the left child's
// resolved value) into the messages.
func (p *abProcessor) handoff(s *abSState) {
	t := p.r.t
	for _, f := range s.stack {
		u := f.node
		level := t.Depth(u)
		switch f.stage {
		case 1:
			p.send(level, abMessage{typ: abPSolve2, v: u, alpha: f.alpha, beta: f.beta})
			p.send(level+1, abMessage{typ: abSSolve, v: t.Node(u).FirstChild + 1, alpha: f.alpha, beta: f.beta})
		case 2:
			p.send(level, abMessage{typ: abPSolve3, v: u, alpha: f.alpha, beta: f.beta, val: f.lval})
		default:
			p.send(level, abMessage{typ: abPSolve, v: u, alpha: f.alpha, beta: f.beta})
		}
	}
}

// combine resolves a MAX/MIN parent from two child values (fail-hard).
func combine(isMax bool, a, b int64) int64 {
	if isMax == (a > b) {
		return a
	}
	return b
}

// cutoff reports whether a child value already decides the parent within
// its window: value >= beta at a MAX node, value <= alpha at a MIN node.
func (st *abPState) cutoff(isMax bool, val int64) bool {
	if isMax {
		return val >= st.beta
	}
	return val <= st.alpha
}

func (p *abProcessor) handleVal(v tree.NodeID, x int64) {
	t := p.r.t
	parentLevel := t.Depth(v) - 1
	ls := p.levels[parentLevel]
	if ls == nil || ls.p == nil {
		p.sh.MsgsStale.Add(1)
		return
	}
	st := ls.p
	isMax := t.IsMaxNode(st.v)
	switch v {
	case st.w:
		if st.lok {
			p.sh.MsgsStale.Add(1)
			return
		}
		st.lval, st.lok = x, true
		if st.cutoff(isMax, x) {
			p.finish(parentLevel, st, x)
			return
		}
		if st.rok {
			p.finish(parentLevel, st, combine(isMax, st.lval, st.rval))
			return
		}
		// Promote the speculative right child with the sharpened window.
		alpha, beta := st.alpha, st.beta
		if isMax {
			if x > alpha {
				alpha = x
			}
		} else if x < beta {
			beta = x
		}
		p.send(parentLevel+1, abMessage{typ: abPSolve, v: st.x, alpha: alpha, beta: beta})
	case st.x:
		if st.rok {
			p.sh.MsgsStale.Add(1)
			return
		}
		st.rval, st.rok = x, true
		if st.cutoff(isMax, x) {
			p.finish(parentLevel, st, x)
			return
		}
		if st.lok {
			p.finish(parentLevel, st, combine(isMax, st.lval, st.rval))
		}
	default:
		p.sh.MsgsStale.Add(1) // value for a child this invocation is not waiting on
	}
}

func (p *abProcessor) finish(level int, st *abPState, val int64) {
	p.r.markReported(st.v)
	p.send(level-1, abMessage{typ: abVal, v: st.v, val: val})
	if ls := p.levels[level]; ls != nil && ls.p == st {
		ls.p = nil
	}
}

func (p *abProcessor) stepWork() {
	for i := 0; i < len(p.owned); i++ {
		lvl := p.owned[(p.next+i)%len(p.owned)]
		if ls := p.levels[lvl]; ls != nil && ls.s != nil {
			p.next = (p.next + i + 1) % len(p.owned)
			p.stepS(ls)
			return
		}
	}
}

// stepS performs one expansion of the sequential alpha-beta DFS, plus the
// free value propagation.
func (p *abProcessor) stepS(ls *abLevelState) {
	t := p.r.t
	s := ls.s
	top := &s.stack[len(s.stack)-1]
	p.r.expand()
	nd := t.Node(top.node)
	if nd.NumChildren == 0 {
		p.propagateS(ls, int64(nd.Value))
		return
	}
	top.stage = 1
	s.stack = append(s.stack, abFrame{node: nd.FirstChild, alpha: top.alpha, beta: top.beta})
}

func (p *abProcessor) propagateS(ls *abLevelState, val int64) {
	t := p.r.t
	s := ls.s
	s.stack = s.stack[:len(s.stack)-1]
	for len(s.stack) > 0 {
		top := &s.stack[len(s.stack)-1]
		isMax := t.IsMaxNode(top.node)
		if top.stage == 1 {
			// Left child resolved.
			if isMax && val >= top.beta || !isMax && val <= top.alpha {
				// Cutoff: the right child is pruned.
				s.stack = s.stack[:len(s.stack)-1]
				continue
			}
			top.stage = 2
			top.lval = val
			alpha, beta := top.alpha, top.beta
			if isMax {
				if val > alpha {
					alpha = val
				}
			} else if val < beta {
				beta = val
			}
			s.stack = append(s.stack, abFrame{node: t.Node(top.node).FirstChild + 1, alpha: alpha, beta: beta})
			return
		}
		// Right child resolved: combine.
		val = combine(isMax, top.lval, val)
		s.stack = s.stack[:len(s.stack)-1]
	}
	p.r.markReported(s.root)
	p.send(t.Depth(s.root)-1, abMessage{typ: abVal, v: s.root, val: val})
	ls.s = nil
}
