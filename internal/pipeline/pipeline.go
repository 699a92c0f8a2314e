// Package pipeline implements a token-throughput pipeline scheduling
// engine in the style of Pipeflow (the design tf::Pipeline grew into):
// tokens stream through a row of pipes (stages) over a fixed number of
// parallel lines, and the unit of measurement is tokens per second.
//
// Each pipe is Serial (tokens pass in token order, one at a time) or
// Parallel (any number in flight). The first pipe must be Serial: it
// generates the tokens and decides when to stop.
//
// A pipeline is a task of a taskflow: *Pipeline is a core.Module, so
// fb.EmplaceModule(p) runs it between other tasks (parse → pipeline →
// reduce), and its successors start when its last token retires. It has no
// run lifecycle of its own. Fail and pipe panics fail-fast-cancel the
// enclosing topology; a cancelled topology — a failure elsewhere, a
// RunContext deadline, Future.Cancel — stops token generation; token
// latencies go to the topology's flow (SetFlow). After a Stop, Fail or
// cancellation the tokens in flight drain through their pipes. Run is the
// run of a one-node taskflow New builds. Beyond the paper-era pipeline:
//
//   - Reusable runs: the (line × pipe) cell matrix, join counters and
//     Pipeflow objects reset in place, at zero allocations per run in
//     steady state (TestPipelineRunNZeroAlloc).
//   - Data-parallel pipes (ForEach): a token fans out as claimant tasks
//     pulling index ranges off a shared executor.RangeCursor, submitted in
//     one SubmitBatch; a join barrier holds the token until the range is
//     done, and claimants stop claiming once the run is cancelled.
//   - Token deferral (Pipeflow.Defer, Pipeflow §III-C): a token parks until
//     a strictly earlier token has completed the same pipe, on an intrusive
//     wait-list threaded through the cell matrix.
//
// Cell (l, p) becomes ready when (l, p-1) finishes and, for a Serial pipe,
// when (l-1, p) finishes; counters re-arm as lines wrap around. Every
// scheduled cell, claimant and parked cell holds one unit of the module
// task's core.Join, and the last to retire completes the task.
//
// Observability: each completed token's latency from generation to the end
// of the last pipe goes to the topology's LatencySink (queue-wait zero).
// Traced cells carry Flow = the pipeline's name, Name = pipe, Idx = line
// and Gen = the topology's run; Stats counts tokens per line.
package pipeline

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
)

// ErrRunning fails a module task that starts a pipeline while another run
// of the same pipeline is still in flight.
var ErrRunning = errors.New("pipeline: started while a run of it is in flight")

// Type classifies a pipe.
type Type uint8

const (
	// Serial pipes process tokens one at a time in token order.
	Serial Type = iota
	// Parallel pipes process any number of tokens concurrently.
	Parallel
)

// Partitioner selects how a ForEach pipe splits its range across claimants,
// as the core partitioners do.
type Partitioner uint8

const (
	// Static claims one even contiguous block per claimant.
	Static Partitioner = iota
	// Dynamic claims fixed grain-sized chunks.
	Dynamic
	// Guided claims max(grain, remaining/(2·workers)): shrinking chunks.
	Guided
)

// Pipeflow is the per-invocation state handed to a pipe callable, as
// tf::Pipeflow; owned by its cell, valid only during the callable.
type Pipeflow struct {
	p       *Pipeline
	line    int
	pipe    int
	token   int64
	stop    bool
	deferTo int64 // -1 = no deferral requested this invocation
}

// Line returns the line (row) this invocation runs on.
func (pf *Pipeflow) Line() int { return pf.line }

// Pipe returns the pipe (stage) index.
func (pf *Pipeflow) Pipe() int { return pf.pipe }

// Token returns the token sequence number.
func (pf *Pipeflow) Token() int64 { return pf.token }

// Stop ends token generation; meaningful in the first pipe only, whose
// stopping token goes no further. From a ForEach body it is an error.
func (pf *Pipeflow) Stop() {
	if pf.p.pipes[pf.pipe].dp {
		pf.p.j.Fail(fmt.Errorf("pipeline: Stop called from a ForEach body (pipe %d)", pf.pipe))
		return
	}
	pf.stop = true
}

// Fail records err against the enclosing topology and fail-fast-cancels
// it, from any pipe or ForEach body: no new token is generated, claimants
// stop claiming, tokens in flight drain, and the taskflow's Run (and Err)
// report the error. A nil err is ignored.
func (pf *Pipeflow) Fail(err error) {
	if err == nil {
		return
	}
	pf.p.j.Fail(fmt.Errorf("pipeline: pipe %d failed on token %d: %w", pf.pipe, pf.token, err))
}

// Defer parks the current token until the strictly earlier token target
// has completed this pipe, so deferral chains cannot cycle. If target is
// done already, Defer is a no-op; otherwise the token parks when the
// callable returns, and the callable is INVOKED AGAIN for the same token
// once target completes (Deferrals tells the invocations apart). Only
// Parallel pipes ever park. From a ForEach body, or with a target that is
// negative or not earlier, Defer records an error instead.
func (pf *Pipeflow) Defer(target int64) {
	if pf.p.pipes[pf.pipe].dp {
		pf.p.j.Fail(fmt.Errorf("pipeline: Defer called from a ForEach body (pipe %d)", pf.pipe))
		return
	}
	if target < 0 || target >= pf.token {
		pf.p.j.Fail(fmt.Errorf("pipeline: pipe %d token %d deferred to non-earlier token %d",
			pf.pipe, pf.token, target))
		return
	}
	pf.deferTo = target
}

// Deferrals returns how many times this token has parked at this pipe.
func (pf *Pipeflow) Deferrals() int { return int(pf.p.cells[pf.line][pf.pipe].deferCount) }

// Pipe couples a type with a callable; ForEach builds data-parallel pipes.
type Pipe struct {
	Type Type
	Fn   func(*Pipeflow)

	// Data-parallel extension, set by ForEach.
	dp      bool
	dpN     func(*Pipeflow) int
	dpGrain int
	dpPart  Partitioner
	dpBody  func(pf *Pipeflow, begin, end int)
}

// ForEach builds a data-parallel pipe: per token, body(pf, begin, end) runs
// over disjoint subranges of [0, n(pf)) across the workers, and the token
// advances once the whole range is done. grain is the minimum chunk (≥1),
// part the chunking policy. Bodies of one token run concurrently: they
// must not call Stop or Defer, and synchronize shared writes themselves.
func ForEach(t Type, n func(*Pipeflow) int, grain int, part Partitioner, body func(pf *Pipeflow, begin, end int)) Pipe {
	if n == nil || body == nil {
		panic("pipeline: ForEach needs both a range function and a body")
	}
	return Pipe{Type: t, dp: true, dpN: n, dpGrain: max(grain, 1), dpPart: part, dpBody: body}
}

// cellID assigns trace identities to the cells and claimants of a process.
var cellID atomic.Uint64

// cell is the pre-built task of one (line, pipe) slot: its own task slot
// and Pipeflow, reused by every token, as its join counter lets at most
// one invocation be in flight.
type cell struct {
	p    *Pipeline
	line int
	pipe int
	pf   Pipeflow
	self executor.Runnable // == &cell; &self is the scheduling currency
	join atomic.Int32
	id   uint64
	name string

	// Deferral: completed is the last token to finish this cell (-1: none)
	// and waiters the cells parked on it (written under defMu). A parked
	// cell links through waitFor/waitNext; deferCount counts its parks.
	completed  atomic.Int64
	waiters    atomic.Pointer[cell]
	waitFor    int64
	waitNext   *cell
	deferCount int64

	// ForEach pipes: the range cursor, armed per token, the claimants
	// still running, and the claimant tasks (one per worker).
	cursor    executor.RangeCursor
	pending   atomic.Int64
	claims    []dpClaim
	claimRefs []*executor.Runnable
}

// Run implements executor.Runnable.
func (c *cell) Run(ctx executor.Context) { c.p.runCell(ctx, c) }

// Describe implements executor.Described (see the package comment).
func (c *cell) Describe() executor.TaskMeta {
	return executor.TaskMeta{
		Flow: c.p.name, Name: c.name, ID: c.id,
		Idx: int32(c.line), Gen: c.p.j.Gen(),
	}
}

// dpClaim is one pre-built claimant task of a ForEach cell.
type dpClaim struct {
	c    *cell
	self executor.Runnable
	id   uint64
}

// Run implements executor.Runnable.
func (d *dpClaim) Run(ctx executor.Context) { d.c.p.runClaim(ctx, d.c) }

// Describe implements executor.Described: its cell's identity, its own ID.
func (d *dpClaim) Describe() executor.TaskMeta {
	m := d.c.Describe()
	m.ID = d.id
	return m
}

// Stats is a snapshot of a pipeline's cumulative counters.
type Stats struct {
	Runs      uint64  // started runs, composed ones included
	Tokens    int64   // tokens that completed every pipe
	Deferrals int64   // tokens parked by Pipeflow.Defer
	PerLine   []int64 // Tokens per line
}

// Pipeline schedules tokens through pipes over a fixed set of lines. Build
// it once, then Run it, or the taskflows it is a module task of, again and
// again. A start while a run is in flight fails its task with ErrRunning.
type Pipeline struct {
	pipes   []Pipe
	lines   int
	workers int
	name    string

	// tf is the one-node taskflow Run runs, err its last Run's error. cur
	// holds the core.Join of the run in flight, or of the last one, which
	// Start claims from; j is the same Join for the cells of the run.
	tf  *core.Taskflow
	err error
	cur atomic.Value
	j   core.Join

	cells     [][]cell // [line][pipe] pre-built task objects
	stopped   atomic.Bool
	nextToken atomic.Int64
	total     atomic.Int64 // tokens that completed the last pipe, across runs
	runs      atomic.Uint64

	deferrals  atomic.Int64
	lineTokens []atomic.Int64

	// lineStart is the start stamp of each line's token, taken when the run
	// records latency; ordered by the join-counter chain.
	lineStart []int64

	defMu sync.Mutex // guards every cell's waiters list
}

// New builds a pipeline of at least one pipe over sched (the executor, or
// internal/sim's) with the given number of lines. The first pipe must be
// Serial and not a ForEach pipe.
func New(sched executor.Scheduler, lines int, pipes ...Pipe) *Pipeline {
	if len(pipes) == 0 {
		panic("pipeline: need at least one pipe")
	}
	if pipes[0].Type != Serial || pipes[0].dp {
		panic("pipeline: the first pipe generates tokens: it must be Serial and not a ForEach pipe")
	}
	lines = max(lines, 1)
	p := &Pipeline{
		pipes:   pipes,
		lines:   lines,
		workers: sched.NumWorkers(),
		name:    "pipeline",
		tf:      core.NewShared(sched).SetName("pipeline"),
	}
	// The module task's execution is the head's first activation, so it
	// carries the head's name, as that cell's spans do.
	p.tf.EmplaceModule(p).Name("p0")
	p.lineStart = make([]int64, lines)
	p.lineTokens = make([]atomic.Int64, lines)
	p.cells = make([][]cell, lines)
	for l := 0; l < lines; l++ {
		p.cells[l] = make([]cell, len(pipes))
		for q := range p.cells[l] {
			c := &p.cells[l][q]
			c.p, c.line, c.pipe = p, l, q
			c.pf.p = p
			c.self = c
			c.id = cellID.Add(1)
			c.name = "p" + strconv.Itoa(q)
			c.completed.Store(-1)
			if pipes[q].dp {
				k := max(p.workers, 1)
				c.claims = make([]dpClaim, k)
				c.claimRefs = make([]*executor.Runnable, k)
				for i := range c.claims {
					c.claims[i].c = c
					c.claims[i].self = &c.claims[i]
					c.claims[i].id = cellID.Add(1)
					c.claimRefs[i] = &c.claims[i].self
				}
			}
		}
	}
	return p
}

// Named sets the display name (default "pipeline"), the Flow of traced
// cell spans, before the first Run. Returns p for chaining.
func (p *Pipeline) Named(name string) *Pipeline {
	p.name = name
	p.tf.SetName(name)
	return p
}

// initialJoin computes the dependency count of cell (l, q) for its first
// activation in a run; rearmJoin applies on every wrap-around thereafter.
func (p *Pipeline) initialJoin(l, q int) int32 {
	if q == 0 {
		if l == 0 {
			return 0 // the very first token starts immediately
		}
		return 1 // waits for (l-1, 0); no previous round on this line yet
	}
	if p.pipes[q].Type == Serial && l > 0 {
		return 2 // (l, q-1) and (l-1, q)
	}
	// Parallel pipe, or serial pipe's first passage on line 0.
	return 1
}

// rearmJoin is the steady-state dependency count of cell (l, q): the head
// waits for its line's last pipe and (l-1, 0), a Serial pipe for (l, q-1)
// and (l-1, q).
func (p *Pipeline) rearmJoin(q int) int32 {
	if q == 0 || p.pipes[q].Type == Serial {
		return 2
	}
	return 1
}

// Start implements core.Module: it claims the pipeline for j — ErrRunning
// while another run is in flight — re-arms the cell matrix in place and
// runs the head cell's first activation, which takes over j's first unit.
func (p *Pipeline) Start(ctx executor.Context, j core.Join) {
	cur := p.cur.Load()
	if prev, ok := cur.(core.Join); ok && prev != j && prev.Busy() || !p.cur.CompareAndSwap(cur, j) {
		j.Fail(ErrRunning)
		j.Done(ctx)
		return
	}
	p.j = j
	p.runs.Add(1)
	p.stopped.Store(false)
	p.nextToken.Store(0)
	for l := range p.cells {
		for q := range p.cells[l] {
			c := &p.cells[l][q]
			c.join.Store(p.initialJoin(l, q))
			c.completed.Store(-1)
			c.deferCount = 0
		}
	}
	// The head cell's first activation is this one rather than a release,
	// so its counter is re-armed here for the wrap-around rounds.
	p.cells[0][0].join.Store(p.rearmJoin(0))
	p.runCell(ctx, &p.cells[0][0])
}

// Run runs the pipeline's one-node taskflow: tokens until the first pipe
// calls Stop (or a pipe fails or panics), then the drain. It returns the
// tokens that completed every pipe; Err reports the run's error.
func (p *Pipeline) Run() int64 {
	before := p.total.Load()
	p.err = p.tf.Run()
	return p.total.Load() - before
}

// RunN runs the pipeline up to n times, stopping after a failed run, and
// returns the tokens processed.
func (p *Pipeline) RunN(n int) int64 {
	var total int64
	for i := 0; i < n; i++ {
		if total += p.Run(); p.err != nil {
			break
		}
	}
	return total
}

// Err returns the last Run's error: its failures joined, as a taskflow's
// Run joins them. A composed pipeline reports through the composing Run.
func (p *Pipeline) Err() error { return p.err }

// release takes one dependency off cell (l, q) and returns it, re-armed
// for its next token, when that was its last; nil otherwise.
func (p *Pipeline) release(l, q int) *cell {
	c := &p.cells[l][q]
	if c.join.Add(-1) != 0 {
		return nil
	}
	c.join.Store(p.rearmJoin(q))
	return c
}

// runCell runs cell c and then the cell each activation hands on along its
// line as its continuation.
func (p *Pipeline) runCell(ctx executor.Context, c *cell) {
	for c != nil {
		c = p.activate(ctx, c)
	}
}

// activate is one activation of cell c: generate (head), invoke or fan out
// its token, then advance it unless a deferral parks it. It returns the
// cell this worker continues with, nil for none.
func (p *Pipeline) activate(ctx executor.Context, c *cell) *cell {
	l, q := c.line, c.pipe
	var tok int64
	if q == 0 { // token generation at the serial head
		if p.stopped.Load() || p.j.Cancelled() {
			p.j.Done(ctx) // token order along the first pipe ends here
			return nil
		}
		tok = p.nextToken.Add(1) - 1
		if p.j.Latency() != nil {
			p.lineStart[l] = ctx.StartStamp()
		}
	} else {
		tok = p.nextTokenOnLine(l)
	}
	pf := &c.pf
	pf.line, pf.pipe, pf.token, pf.stop, pf.deferTo = l, q, tok, false, -1
	pipe := &p.pipes[q]
	if pipe.dp {
		return p.fanOut(ctx, c, pipe, tok)
	}
	p.invoke(pipe, pf)
	switch {
	case pf.stop && q == 0:
		p.stopped.Store(true)
		p.j.Done(ctx)
	case pf.deferTo >= 0 && p.park(ctx, c, pf.deferTo):
		// Parked with its unit, resubmitted when the target completes. (At
		// the serial head Defer never parks; park checks all the same.)
	default:
		return p.advance(ctx, c, tok)
	}
	return nil
}

// advance completes token tok at cell c: wake deferral waiters, hand token
// order to the next line (serial pipes), move the token on or finish it.
// c's unit goes to the line's next cell, which this worker continues with
// (returned), or retires (nil).
func (p *Pipeline) advance(ctx executor.Context, c *cell, tok int64) *cell {
	l, q := c.line, c.pipe
	c.deferCount = 0
	c.completed.Store(tok)
	if c.waiters.Load() != nil {
		p.wakeWaiters(ctx, c, tok)
	}
	next := q + 1
	if p.pipes[q].Type == Serial {
		if s := p.release((l+1)%p.lines, q); s != nil {
			p.j.Add(1)
			ctx.Submit(&s.self)
		}
	}
	if next == len(p.pipes) {
		p.completeToken(ctx, l)
		next = 0 // line becomes free: wrap to the head
	}
	if s := p.release(l, next); s != nil {
		ctx.Continue(&s.self)
		return s
	}
	p.j.Done(ctx)
	return nil
}

// completeToken accounts one token that finished the last pipe on line l
// and records its end-to-end latency when the run has a sink.
func (p *Pipeline) completeToken(ctx executor.Context, l int) {
	p.total.Add(1)
	p.lineTokens[l].Add(1)
	if lat := p.j.Latency(); lat != nil {
		lat.RecordLatency(ctx.WorkerID(), 0, ctx.EndStamp()-p.lineStart[l])
	}
}

// park links c onto the wait-list of the cell that completes target on
// c's pipe, and reports whether it parked (false: target is done). A parked
// cell keeps its unit, so the run cannot complete under it.
func (p *Pipeline) park(ctx executor.Context, c *cell, target int64) bool {
	tc := &p.cells[int(target%int64(p.lines))][c.pipe]
	if tc.completed.Load() >= target {
		return false // already completed: Defer is a no-op
	}
	ctx.Settle() // once linked, c is any worker's to resume
	p.defMu.Lock()
	c.waitFor = target
	c.waitNext = tc.waiters.Load()
	tc.waiters.Store(c)
	// A completion that raced past the check above either sees the link
	// and wakes c, or published target: then c must not park.
	if tc.completed.Load() >= target {
		tc.waiters.Store(c.waitNext)
		c.waitNext = nil
		p.defMu.Unlock()
		return false
	}
	c.deferCount++
	p.deferrals.Add(1)
	p.defMu.Unlock()
	return true
}

// wakeWaiters resubmits every cell parked on tc whose target is done
// (waitFor ≤ tok), with the unit it kept, to re-run for the same token.
func (p *Pipeline) wakeWaiters(ctx executor.Context, tc *cell, tok int64) {
	p.defMu.Lock()
	var ready, keep *cell
	for c := tc.waiters.Load(); c != nil; {
		next := c.waitNext
		if c.waitFor <= tok {
			c.waitNext = ready
			ready = c
		} else {
			c.waitNext = keep
			keep = c
		}
		c = next
	}
	tc.waiters.Store(keep)
	p.defMu.Unlock()
	for c := ready; c != nil; {
		next := c.waitNext
		c.waitNext = nil
		ctx.Submit(&c.self)
		c = next
	}
}

// fanOut runs one token of a ForEach pipe: evaluate the range, arm the
// cursor and submit the claimants as one batch. The cell's unit goes to
// the claimants; the last to finish advances the token. An empty range
// advances it here, returning the cell to continue with as advance does.
func (p *Pipeline) fanOut(ctx executor.Context, c *cell, pipe *Pipe, tok int64) *cell {
	n := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				p.j.Fail(fmt.Errorf("pipeline: ForEach range of pipe %d panicked on token %d: %v",
					c.pipe, tok, r))
			}
		}()
		n = pipe.dpN(&c.pf)
	}()
	if n <= 0 {
		return p.advance(ctx, c, tok) // empty range: the token advances untouched
	}
	grain, k, guided := pipe.dpGrain, len(c.claims), 0
	switch pipe.dpPart {
	case Static:
		// One even contiguous block per claimant (grain as a floor).
		grain = max(grain, (n+k-1)/k)
	case Guided:
		guided = p.workers
	}
	k = min(k, (n+grain-1)/grain)
	c.cursor.Arm(n, grain, guided)
	c.pending.Store(int64(k))
	p.j.Add(k - 1)
	ctx.Settle() // the claimants carry the token on, on any worker
	if err := ctx.Executor().SubmitBatch(c.claimRefs[:k]); err != nil {
		// Rejected whole (shut down): take the units back and advance.
		p.j.Fail(err)
		p.j.Add(1 - k)
		return p.advance(ctx, c, tok)
	}
	return nil
}

// runClaim is one claimant of a ForEach cell: it claims ranges until the
// cursor runs dry or the run is cancelled; the last one advances the token.
func (p *Pipeline) runClaim(ctx executor.Context, c *cell) {
	pipe := &p.pipes[c.pipe]
	for !p.j.Cancelled() {
		lo, hi, ok := c.cursor.Claim()
		if !ok {
			break
		}
		p.invokeBody(pipe, &c.pf, lo, hi)
	}
	if c.pending.Add(-1) == 0 {
		p.runCell(ctx, p.advance(ctx, c, c.pf.token)) // barrier reached: the token moves on
		return
	}
	p.j.Done(ctx)
}

// nextTokenOnLine is the token on line l: of l, l+L, l+2L, ... the largest
// generated so far, for a line has one token in flight.
func (p *Pipeline) nextTokenOnLine(l int) int64 {
	n := p.nextToken.Load()
	r := (n - 1 - int64(l)) / int64(p.lines)
	return int64(l) + r*int64(p.lines)
}

func (p *Pipeline) invoke(pipe *Pipe, pf *Pipeflow) {
	defer func() {
		if r := recover(); r != nil {
			// A panicking pipe fails the run; in-flight work drains.
			p.j.Fail(fmt.Errorf("pipeline: pipe %d panicked on token %d: %v", pf.pipe, pf.token, r))
		}
	}()
	pipe.Fn(pf)
}

func (p *Pipeline) invokeBody(pipe *Pipe, pf *Pipeflow, begin, end int) {
	defer func() {
		if r := recover(); r != nil {
			p.j.Fail(fmt.Errorf("pipeline: ForEach body of pipe %d panicked on token %d [%d,%d): %v",
				pf.pipe, pf.token, begin, end, r))
		}
	}()
	pipe.dpBody(pf, begin, end)
}

// Stats snapshots the cumulative counters; safe while the pipeline runs.
func (p *Pipeline) Stats() Stats {
	st := Stats{
		Runs:      p.runs.Load(),
		Tokens:    p.total.Load(),
		Deferrals: p.deferrals.Load(),
		PerLine:   make([]int64, p.lines),
	}
	for l := range p.lineTokens {
		st.PerLine[l] = p.lineTokens[l].Load()
	}
	return st
}
