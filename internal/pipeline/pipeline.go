// Package pipeline implements a token-throughput pipeline scheduling
// engine in the style of Pipeflow (the design tf::Pipeline grew into):
// tokens stream through a row of pipes (stages) over a fixed number of
// parallel lines, and the unit of measurement is tokens per second, not
// graph latency.
//
// A pipeline is a row of pipes, each Serial (tokens pass through in
// strict token order, one at a time) or Parallel (any number of tokens in
// flight). The first pipe must be Serial: it generates the token sequence
// and decides when to stop. Three engine features go beyond the classic
// paper-era pipeline:
//
//   - Reusable runs. Run and RunN re-execute a pre-built pipeline: the
//     (line × pipe) cell matrix, join counters and Pipeflow objects reset
//     in place, so a serving loop pumps batch after batch through one
//     pipeline at zero allocations per run in steady state (gated by
//     TestPipelineRunNZeroAlloc).
//
//   - Data-parallel pipes (ForEach): one token fans out across the
//     executor as claimant tasks pulling index ranges off a shared atomic
//     cursor (executor.RangeCursor, the one the core partitioners use),
//     submitted in one SubmitBatch so the fan-out rides the sharded
//     injection queue; a join barrier holds the token until the whole
//     range completes.
//
//   - Token deferral (Pipeflow.Defer): a pipe callable may park its token
//     until an earlier token has completed the same pipe — the
//     deferred-pipe dependency of Pipeflow §III-C, restricted to
//     strictly-earlier targets so deferral graphs are acyclic by
//     construction. Parked tokens sit on an intrusive wait-list threaded
//     through the cell matrix (no per-defer allocation) and re-enter the
//     scheduler through the normal signal path when the target completes.
//
// Scheduling uses the classic (line × pipe) join-counter matrix: cell
// (l, p) becomes ready when cell (l, p-1) finishes (its token advances)
// and, for a Serial pipe, when cell (l-1, p) finishes (token order across
// lines); counters re-arm as lines wrap around for subsequent tokens.
//
// Observability: when the scheduler records latency histograms
// (executor.WithLatencyHistograms), each completed token's end-to-end
// latency — generation at the head to completion of the last pipe — is
// recorded through the LatencySink seam (exec and end-to-end series;
// queue-wait is reported as zero, since generation is the token's birth).
// Under executor.WithTracing, cells identify themselves (flow = the
// pipeline's name, task = pipe, Idx = line), so a capture can be grouped
// by line; Stats counts tokens per line.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"gotaskflow/internal/executor"
)

// Type classifies a pipe.
type Type uint8

const (
	// Serial pipes process tokens one at a time in token order.
	Serial Type = iota
	// Parallel pipes process any number of tokens concurrently.
	Parallel
)

// Partitioner selects how a ForEach pipe splits its iteration space
// across claimant tasks, mirroring the core parallel-algorithm
// partitioners (PR 5) one level up.
type Partitioner uint8

const (
	// Static divides the range into one even contiguous block per
	// claimant (still claimed off the shared cursor, so a lost claimant
	// cannot strand work).
	Static Partitioner = iota
	// Dynamic claims fixed grain-sized chunks off the shared cursor.
	Dynamic
	// Guided claims geometrically shrinking chunks:
	// max(grain, remaining/(2·workers)) — large grants amortize the
	// cursor while the work is plentiful, small grants balance the tail.
	Guided
)

// Pipeflow carries the per-invocation state handed to a pipe callable,
// mirroring tf::Pipeflow. The object is owned by the scheduling cell and
// reused across invocations; it is only valid during the callable.
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

// Stop ends token generation. Only meaningful in the first pipe; the
// stopping token itself is not propagated to later pipes. Calling Stop
// from a ForEach body is an error (bodies run concurrently; use Fail).
func (pf *Pipeflow) Stop() {
	if pf.p.pipes[pf.pipe].dp {
		pf.p.fail(fmt.Errorf("pipeline: Stop called from a ForEach body (pipe %d)", pf.pipe))
		return
	}
	pf.stop = true
}

// Fail records err against the pipeline and stops token generation from
// any pipe: tokens already in flight drain, no new tokens are generated,
// and Err (and RunContext) report the error. Unlike Stop, Fail is
// meaningful in every pipe and safe from ForEach bodies. A nil err is
// ignored.
func (pf *Pipeflow) Fail(err error) {
	if err == nil {
		return
	}
	pf.p.fail(fmt.Errorf("pipeline: pipe %d failed on token %d: %w",
		pf.pipe, pf.token, err))
}

// Defer parks the current token until token `target` has completed this
// pipe (Pipeflow's deferred-pipe dependency). The target must be
// strictly earlier than the current token — deferral chains therefore
// strictly decrease and can never cycle. When the target has already
// completed this pipe, Defer is a no-op and the invocation completes
// normally; otherwise the token parks after the callable returns and the
// callable is INVOKED AGAIN for the same token once the target completes
// (check Deferrals to distinguish re-invocations). On a Serial pipe
// earlier tokens have always completed first, so Defer only ever parks on
// Parallel pipes. Calling Defer from a ForEach body, or with a target
// that is negative or not strictly earlier, records an error and does
// not park.
func (pf *Pipeflow) Defer(target int64) {
	if pf.p.pipes[pf.pipe].dp {
		pf.p.fail(fmt.Errorf("pipeline: Defer called from a ForEach body (pipe %d)", pf.pipe))
		return
	}
	if target < 0 || target >= pf.token {
		pf.p.fail(fmt.Errorf("pipeline: pipe %d token %d deferred to non-earlier token %d",
			pf.pipe, pf.token, target))
		return
	}
	pf.deferTo = target
}

// Deferrals returns how many times this token has parked at this pipe so
// far — 0 on the first invocation, ≥1 on invocations re-armed by Defer.
func (pf *Pipeflow) Deferrals() int {
	return int(pf.p.cells[pf.line][pf.pipe].deferCount)
}

// Pipe couples a type with a callable. Construct directly for scalar
// pipes, or with ForEach for data-parallel pipes.
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

// ForEach builds a data-parallel pipe: for each token, body(pf, begin,
// end) is invoked over disjoint subranges of [0, n(pf)) fanned out across
// the executor's workers, and the token advances only after the whole
// range has completed (a join barrier inside the pipe). n is evaluated
// once per token; grain is the minimum chunk size (clamped to ≥1); part
// selects the chunking policy. The fan-out is submitted as one task batch
// (Scheduler.SubmitBatch), so it lands on the sharded injection queue and
// spreads by batch stealing. Bodies of one token run concurrently: they
// must not call Stop or Defer (use Fail for errors) and must synchronize
// any shared writes themselves.
func ForEach(t Type, n func(*Pipeflow) int, grain int, part Partitioner, body func(pf *Pipeflow, begin, end int)) Pipe {
	if n == nil || body == nil {
		panic("pipeline: ForEach needs both a range function and a body")
	}
	if grain < 1 {
		grain = 1
	}
	return Pipe{Type: t, dp: true, dpN: n, dpGrain: grain, dpPart: part, dpBody: body}
}

// cellID assigns trace identities to cells and claimants across all
// pipelines in the process.
var cellID atomic.Uint64

// cell is the pre-built task object for one (line, pipe) slot of the
// scheduling matrix. Cells implement executor.Runnable and carry their
// own intrusive task slot and a reusable Pipeflow, so the steady-state
// token loop schedules pointers into the matrix without allocating per
// invocation. A cell has at most one invocation in flight (its join
// counter gates readiness), so the reuse is safe.
type cell struct {
	p    *Pipeline
	line int
	pipe int
	pf   Pipeflow
	self executor.Runnable // == &cell; &self is the scheduling currency
	join atomic.Int32
	id   uint64
	name string

	// Deferral state. As a completion target: completed is the last token
	// to finish this cell (-1 before any), and waiters heads the intrusive
	// list of cells parked on this cell's progress (writes under the
	// pipeline's defMu; racily read as a fast-path guard). As a parked
	// cell: waitFor/waitNext are the intrusive links, deferCount counts
	// parks of the current token.
	completed  atomic.Int64
	waiters    atomic.Pointer[cell]
	waitFor    int64
	waitNext   *cell
	deferCount int64

	// Data-parallel state (ForEach pipes only): the shared range cursor,
	// armed per token, the claimant join counter, and the pre-built
	// claimant tasks (one per worker).
	cursor    executor.RangeCursor
	pending   atomic.Int64
	claims    []dpClaim
	claimRefs []*executor.Runnable
}

// Run implements executor.Runnable.
func (c *cell) Run(ctx executor.Context) { c.p.runCell(ctx, c) }

// Describe implements executor.Described so traced cell executions carry
// the pipeline's identity: Flow = pipeline name, Name = pipe, Idx = line,
// Gen = the 1-based run round.
func (c *cell) Describe() executor.TaskMeta {
	return executor.TaskMeta{
		Flow: c.p.name, Name: c.name, ID: c.id,
		Idx: int32(c.line), Gen: c.p.rounds.Load() + 1,
	}
}

// dpClaim is one pre-built claimant task of a ForEach cell.
type dpClaim struct {
	c    *cell
	self executor.Runnable
	id   uint64
}

// Run implements executor.Runnable: claim ranges until the cursor is
// exhausted; the last claimant to retire advances the token.
func (d *dpClaim) Run(ctx executor.Context) { d.c.p.runClaim(ctx, d.c) }

// Describe implements executor.Described for traced claimant executions.
func (d *dpClaim) Describe() executor.TaskMeta {
	return executor.TaskMeta{
		Flow: d.c.p.name, Name: d.c.name, ID: d.id,
		Idx: int32(d.c.line), Gen: d.c.p.rounds.Load() + 1,
	}
}

// Stats is a snapshot of a pipeline's cumulative counters.
type Stats struct {
	// Runs counts completed Run rounds (RunN(n) contributes up to n).
	Runs uint64
	// Tokens counts tokens that completed every pipe, across all runs.
	Tokens int64
	// Deferrals counts tokens parked by Pipeflow.Defer (re-invocations).
	Deferrals int64
	// DroppedErrs counts errors discarded beyond the recording cap during
	// the current (or last) run; Err also surfaces it.
	DroppedErrs int64
	// PerLine is the number of tokens completed per line across all runs.
	PerLine []int64
}

// Pipeline schedules tokens through pipes over a fixed set of lines. A
// Pipeline is reusable: build once, then Run or RunN repeatedly — state
// resets in place at zero allocations per run in steady state. A
// Pipeline must not be run concurrently with itself.
type Pipeline struct {
	sched   executor.Scheduler
	pipes   []Pipe
	lines   int
	workers int
	name    string

	cells       [][]cell // [line][pipe] pre-built task objects
	stopped     atomic.Bool
	nextToken   atomic.Int64
	processed   atomic.Int64 // tokens that completed the last pipe this run
	total       atomic.Int64 // across runs
	outstanding atomic.Int64 // scheduled-but-unfinished cells + claimants + parked cells
	rounds      atomic.Uint64
	running     atomic.Bool
	done        chan struct{} // buffered(1); one token per completed run

	deferrals  atomic.Int64
	lineTokens []atomic.Int64

	// lat is the token-latency sink (nil when the scheduler records no
	// histograms); lineStart holds the generating worker's start stamp of
	// each line's in-flight token. Writes and reads are ordered by the
	// join-counter chain.
	lat       executor.LatencySink
	lineStart []int64

	defMu sync.Mutex // guards every cell's waiters list

	errMu   sync.Mutex
	errs    []error
	dropped int64
}

// maxPipelineErrs bounds the recorded failure list so a pipe failing on
// every token cannot grow memory without bound; failures beyond the cap
// are counted (DroppedErrs) and surfaced by Err instead of vanishing.
const maxPipelineErrs = 64

// New builds a pipeline over sched with the given number of lines. The
// first pipe must be Serial and must not be a ForEach pipe; at least one
// pipe is required. sched is typically *executor.Executor; internal/sim's
// deterministic SimExecutor works identically.
func New(sched executor.Scheduler, lines int, pipes ...Pipe) *Pipeline {
	if len(pipes) == 0 {
		panic("pipeline: need at least one pipe")
	}
	if pipes[0].Type != Serial {
		panic("pipeline: the first pipe must be Serial")
	}
	if pipes[0].dp {
		panic("pipeline: the first pipe generates tokens and cannot be a ForEach pipe")
	}
	if lines < 1 {
		lines = 1
	}
	p := &Pipeline{
		sched:   sched,
		pipes:   pipes,
		lines:   lines,
		workers: sched.NumWorkers(),
		name:    "pipeline",
		done:    make(chan struct{}, 1),
	}
	if lp, ok := sched.(executor.LatencyProvider); ok {
		p.lat = lp.LatencySink(nil)
	}
	if p.lat != nil {
		p.lineStart = make([]int64, lines)
	}
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
				k := p.workers
				if k < 1 {
					k = 1
				}
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

// Named sets the pipeline's display name — the Flow of traced cell spans
// and the pipeline label of exported metrics. Returns p for chaining.
func (p *Pipeline) Named(name string) *Pipeline {
	p.name = name
	return p
}

// Name returns the display name (default "pipeline").
func (p *Pipeline) Name() string { return p.name }

// BindFlow routes the pipeline's token-latency recordings to f's
// histogram set instead of the scheduler's unbound default sink. No-op
// when the scheduler records no histograms.
func (p *Pipeline) BindFlow(f executor.Flow) {
	if lp, ok := p.sched.(executor.LatencyProvider); ok {
		if sink := lp.LatencySink(f); sink != nil {
			p.lat = sink
			if p.lineStart == nil {
				p.lineStart = make([]int64, p.lines)
			}
		}
	}
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

// rearmJoin is the steady-state dependency count of cell (l, q).
func (p *Pipeline) rearmJoin(q int) int32 {
	if q == 0 {
		return 2 // previous round's last pipe on this line + (l-1, 0)
	}
	if p.pipes[q].Type == Serial {
		return 2
	}
	return 1
}

// reset re-arms the cell matrix for a fresh run: join counters to their
// initial values, per-cell deferral progress cleared, token and error
// state zeroed. No allocation.
func (p *Pipeline) reset() {
	p.stopped.Store(false)
	p.nextToken.Store(0)
	p.processed.Store(0)
	for l := range p.cells {
		for q := range p.cells[l] {
			c := &p.cells[l][q]
			c.join.Store(p.initialJoin(l, q))
			c.completed.Store(-1)
			c.deferCount = 0
		}
	}
	// The head cell is submitted directly rather than through signal, so
	// its counter is re-armed here for the wrap-around rounds.
	p.cells[0][0].join.Store(p.rearmJoin(0))
	p.errMu.Lock()
	p.errs = p.errs[:0]
	p.dropped = 0
	p.errMu.Unlock()
}

// Run processes tokens until the first pipe calls Stop (or a pipe calls
// Fail or panics), then drains the in-flight tokens and returns the
// number that completed every pipe; inspect Err for failures. Run may be
// called repeatedly — state resets in place — but not concurrently.
func (p *Pipeline) Run() int64 {
	if p.running.Swap(true) {
		panic("pipeline: Run called concurrently")
	}
	defer p.running.Store(false)
	p.reset()
	p.outstanding.Store(1)
	if err := p.sched.Submit(&p.cells[0][0].self); err != nil {
		// The scheduler was already shut down: nothing is in flight.
		// Record the rejection and retire the head's charge so Run
		// returns instead of hanging.
		p.fail(err)
		p.retire()
	}
	<-p.done
	p.rounds.Add(1)
	return p.processed.Load()
}

// RunN runs the pipeline n times back to back and returns the total
// number of tokens processed. It stops early when a run records an
// error (Err reports it).
func (p *Pipeline) RunN(n int) int64 {
	var total int64
	for i := 0; i < n; i++ {
		total += p.Run()
		if p.Err() != nil {
			break
		}
	}
	return total
}

// RunContext is Run bound to ctx: when ctx is cancelled or its deadline
// expires mid-run, token generation stops, in-flight tokens drain, and
// the returned error includes ctx.Err(). It returns the number of tokens
// that completed every pipe together with Err()'s aggregation. A ctx
// that is already done returns without processing any token.
func (p *Pipeline) RunContext(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { p.fail(ctx.Err()) })
	}
	n := p.Run()
	if stop != nil {
		stop()
	}
	return n, p.Err()
}

// signal decrements cell (l, q)'s join counter and schedules it on zero,
// re-arming the counter for the next round. It reports whether it did.
func (p *Pipeline) signal(ctx executor.Context, l, q int, cached bool) bool {
	c := &p.cells[l][q]
	if c.join.Add(-1) != 0 {
		return false
	}
	c.join.Store(p.rearmJoin(q))
	p.outstanding.Add(1)
	if cached {
		ctx.SubmitCached(&c.self)
	} else {
		ctx.Submit(&c.self)
	}
	return true
}

// runCell is one activation of cell c: generate (head), invoke (scalar
// pipes) or fan out (ForEach pipes) the cell's current token, then
// advance it — unless a deferral parks it first.
func (p *Pipeline) runCell(ctx executor.Context, c *cell) {
	l, q := c.line, c.pipe
	if q == 0 {
		// Token generation at the serial head.
		if p.stopped.Load() {
			// Stopped: do not generate or propagate; token order along
			// the first pipe also ends here.
			p.leave(ctx)
			return
		}
		tok := p.nextToken.Add(1) - 1
		pf := &c.pf
		pf.line, pf.pipe, pf.token, pf.stop, pf.deferTo = l, 0, tok, false, -1
		if p.lat != nil {
			p.lineStart[l] = ctx.StartStamp()
		}
		p.invoke(&p.pipes[0], pf)
		if pf.stop {
			p.stopped.Store(true)
			p.leave(ctx)
			return
		}
		// Defer at the head can never park: the serial head completes
		// tokens in generation order, so any strictly-earlier target has
		// already completed pipe 0. park still linearizes the check.
		if pf.deferTo >= 0 && p.park(ctx, c, pf.deferTo) {
			return
		}
		p.advance(ctx, c, tok)
		return
	}

	tok := p.nextTokenOnLine(l)
	pf := &c.pf
	pf.line, pf.pipe, pf.token, pf.stop, pf.deferTo = l, q, tok, false, -1
	pipe := &p.pipes[q]
	if pipe.dp {
		p.fanOut(ctx, c, pipe, tok)
		return
	}
	p.invoke(pipe, pf)
	if pf.deferTo >= 0 && p.park(ctx, c, pf.deferTo) {
		return // parked: charge retained, re-armed when the target completes
	}
	p.advance(ctx, c, tok)
}

// advance completes token tok at cell c: record completion for deferral
// waiters, hand token order to the next line (serial pipes), move the
// token to the next pipe or finish it, and retire the cell's charge.
func (p *Pipeline) advance(ctx executor.Context, c *cell, tok int64) {
	l, q := c.line, c.pipe
	c.deferCount = 0
	c.completed.Store(tok)
	if c.waiters.Load() != nil {
		p.wakeWaiters(ctx, c, tok)
	}
	next := q + 1
	if p.pipes[q].Type == Serial {
		p.signal(ctx, (l+1)%p.lines, q, false)
	}
	if next == len(p.pipes) {
		p.completeToken(ctx, l)
		next = 0 // line becomes free: wrap to the head
	}
	// The cell this worker takes along in its cache slot settles for it,
	// later; without one this may be the last the worker does for the run.
	if p.signal(ctx, l, next, true) {
		p.retire()
	} else {
		p.leave(ctx)
	}
}

// completeToken accounts one token that finished the last pipe on line l
// and records its end-to-end latency when a sink is bound.
func (p *Pipeline) completeToken(ctx executor.Context, l int) {
	p.processed.Add(1)
	p.total.Add(1)
	p.lineTokens[l].Add(1)
	if p.lat != nil {
		p.lat.RecordLatency(ctx.WorkerID(), 0, ctx.EndStamp()-p.lineStart[l])
	}
}

// park blocks cell c's current token until token target completes pipe
// c.pipe, by linking c onto the wait-list of the cell that will complete
// target (the target's line is target mod lines). It reports whether the
// token actually parked; false means the target has already completed
// and the caller should advance normally. The cell's outstanding charge
// is retained while parked, so the run cannot quiesce under it.
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
	// Re-check under the lock: a completion that raced past the fast
	// path above either sees our link (and will wake us) or already
	// published a satisfying token (and we must not park).
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

// wakeWaiters re-arms every cell parked on tc whose target token has now
// completed (waitFor ≤ tok); their retained charges re-enter through the
// normal submit path and the callable re-runs for the same token.
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
// shared cursor and the claimant join counter, and submit the claimants
// as one batch so they ride the sharded injection queue and spread by
// batch stealing. The last claimant to drain the cursor advances the
// token (advance), using the cell's retained charge.
func (p *Pipeline) fanOut(ctx executor.Context, c *cell, pipe *Pipe, tok int64) {
	n := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				p.fail(fmt.Errorf("pipeline: ForEach range of pipe %d panicked on token %d: %v",
					c.pipe, tok, r))
			}
		}()
		n = pipe.dpN(&c.pf)
	}()
	if n <= 0 {
		p.advance(ctx, c, tok) // empty range: the token advances untouched
		return
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
	p.outstanding.Add(int64(k))
	ctx.Settle() // the claimants carry the token on, on any worker
	if err := p.sched.SubmitBatch(c.claimRefs[:k]); err != nil {
		// Rejected whole: no claimant will run. Undo the charges and
		// advance so the failing run still drains.
		p.fail(err)
		p.outstanding.Add(-int64(k))
		c.pending.Store(0)
		p.advance(ctx, c, tok)
	}
}

// runClaim is one claimant of a ForEach cell: claim ranges off the shared
// cursor until it is exhausted; the last claimant to retire advances the
// token.
func (p *Pipeline) runClaim(ctx executor.Context, c *cell) {
	pipe := &p.pipes[c.pipe]
	for {
		lo, hi, ok := c.cursor.Claim()
		if !ok {
			break
		}
		p.invokeBody(pipe, &c.pf, lo, hi)
	}
	if c.pending.Add(-1) == 0 {
		p.advance(ctx, c, c.pf.token) // barrier reached: the token moves on
		p.retire()                    // advance settled, or took a cell along
		return
	}
	p.leave(ctx)
}

// nextTokenOnLine reconstructs the token currently traversing line l: the
// line processes tokens l, l+L, l+2L, ... and exactly one is in flight.
func (p *Pipeline) nextTokenOnLine(l int) int64 {
	// rounds completed on this line = tokens this line has fully retired;
	// derive from the line's position in the global sequence.
	// The token at line l is the largest t = l (mod lines) with t <
	// nextToken; since each line has one token in flight, that is the
	// most recent generation on this line.
	n := p.nextToken.Load()
	r := (n - 1 - int64(l)) / int64(p.lines)
	return int64(l) + r*int64(p.lines)
}

func (p *Pipeline) invoke(pipe *Pipe, pf *Pipeflow) {
	defer func() {
		if r := recover(); r != nil {
			// A panicking pipe stops the pipeline; in-flight work drains.
			p.fail(fmt.Errorf("pipeline: pipe %d panicked on token %d: %v", pf.pipe, pf.token, r))
		}
	}()
	pipe.Fn(pf)
}

func (p *Pipeline) invokeBody(pipe *Pipe, pf *Pipeflow, begin, end int) {
	defer func() {
		if r := recover(); r != nil {
			p.fail(fmt.Errorf("pipeline: ForEach body of pipe %d panicked on token %d [%d,%d): %v",
				pf.pipe, pf.token, begin, end, r))
		}
	}()
	pipe.dpBody(pf, begin, end)
}

// fail records err and stops token generation; in-flight tokens drain.
// Errors beyond the recording cap are counted, not silently discarded.
func (p *Pipeline) fail(err error) {
	p.stopped.Store(true)
	p.errMu.Lock()
	if len(p.errs) < maxPipelineErrs {
		p.errs = append(p.errs, err)
	} else {
		p.dropped++
	}
	p.errMu.Unlock()
}

// retire decrements the outstanding-cell count and completes the run at
// quiescence.
func (p *Pipeline) retire() {
	if p.outstanding.Add(-1) == 0 {
		p.done <- struct{}{}
	}
}

// leave is retire for an activation that leaves its worker nothing of the
// pipeline to go on with: the worker settles its records first, so that a
// Run released by the last retire finds every worker's.
func (p *Pipeline) leave(ctx executor.Context) {
	ctx.Settle()
	p.retire()
}

// Err returns every failure captured during the current (or last) run —
// Fail calls, pipe panics (converted to errors), context cancellation,
// scheduler rejection — aggregated with errors.Join, or nil for a clean
// run. A single failure is returned unwrapped. When more than
// maxPipelineErrs failures occurred, the aggregation ends with an entry
// stating how many were dropped. Run resets the error state.
func (p *Pipeline) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	switch {
	case len(p.errs) == 0:
		return nil
	case len(p.errs) == 1 && p.dropped == 0:
		return p.errs[0]
	case p.dropped == 0:
		return errors.Join(p.errs...)
	}
	joined := make([]error, 0, len(p.errs)+1)
	joined = append(joined, p.errs...)
	joined = append(joined, fmt.Errorf(
		"pipeline: %d additional error(s) dropped (recording cap %d)",
		p.dropped, maxPipelineErrs))
	return errors.Join(joined...)
}

// Stats snapshots the pipeline's cumulative counters. Safe to call while
// the pipeline runs (counters are monotone; the snapshot may lag
// in-flight completions).
func (p *Pipeline) Stats() Stats {
	p.errMu.Lock()
	dropped := p.dropped
	p.errMu.Unlock()
	st := Stats{
		Runs:        p.rounds.Load(),
		Tokens:      p.total.Load(),
		Deferrals:   p.deferrals.Load(),
		DroppedErrs: dropped,
		PerLine:     make([]int64, p.lines),
	}
	for l := range p.lineTokens {
		st.PerLine[l] = p.lineTokens[l].Load()
	}
	return st
}
