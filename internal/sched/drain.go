package sched

import (
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// The deterministic drain.
//
// One scheduler round pops the head token of every active arc and delivers
// it to the arc's head node; deliveries mutate per-task state at the
// receiver and push follow-up tokens onto the receiver's outgoing arcs. The
// worklist of active arcs is ordered — an arc enters it when a push finds
// its queue empty — and that order is observable: when two same-round
// tokens of one task race for an unvisited node, the earlier-listed arc
// wins the Dist/Parent slot. The flat drain therefore preserves the
// worklist order exactly, for every shard count:
//
//   - Pops come first (one per active arc), so tokens pushed in round r are
//     never delivered in round r. Each arc has exactly one owner shard (the
//     shard of its tail node in a contiguous arc-balanced node sharding),
//     and only the owner touches the arc's queue: pops in the pop phase,
//     pushes in the deliver phase — no locks, no atomics.
//   - Delivery effects are receiver-local: visited/dist/parent slots are
//     keyed by (task, receiver), and every push from a delivery at node v
//     rides an arc whose tail is v. Cross-receiver delivery order is
//     therefore unobservable; per-receiver order is snapshot-position
//     order, which all modes share.
//   - The next round's worklist is rebuilt canonically: arcs still
//     non-empty after their pop, in snapshot order, then arcs activated by
//     deliveries, merged across shards by the snapshot position of the
//     delivery that pushed them. A position is delivered by exactly one
//     shard, so the merge is total and unambiguous.
//
// Hence outcomes and Stats are bit-for-bit identical across shard counts
// — and match the seed scheduler, whose sequential drain realizes
// the same order (pinned by TestFlatSchedulerMatchesSeed).

const (
	phasePop     = 0
	phaseDeliver = 1
	phaseStop    = 2
)

// spinLimit is how many times a waiting shard polls before it yields its
// CPU with runtime.Gosched between polls.
const spinLimit = 64

// shardCount, when positive, replaces runtime.GOMAXPROCS(0) as the number of
// shards a drain splits into. The shard count is unobservable in outcomes
// and Stats; it is a variable so tests can pin that on any host.
var shardCount = 0

// shardedRoundMin is the snapshot size below which a pooled drain processes
// the round inline on the coordinator instead of paying two barriers and
// the serial bucketing and merge around them; at 96 the pool cost the
// ClusterChain repair path ~9% while 1024 kept the Erdős–Rényi builds'
// gain. The inline path runs the identical ownership discipline, so the
// switch is unobservable. It is a variable so tests can force the sharded
// path.
var shardedRoundMin = 1024

// handler is the per-execution behavior plugged into a drainer: task starts
// (run by the coordinator between rounds) and token deliveries (run by the
// receiver's owner shard, possibly concurrently with other shards).
type handler[T any] interface {
	start(task int32)
	deliver(sh int, pos int32, arc int32, tk T)
}

// activation records an arc whose queue went non-empty during a round's
// deliveries; pos is the snapshot position of the delivery that pushed it.
type activation struct {
	pos int32
	arc int32
}

// shard is one worker's slice of the drain state.
type shard[T any] struct {
	arena  ringArena[T]
	newAct []activation // activations, ascending pos
	actCur int          // merge cursor
	pops   []int32      // snapshot positions this shard pops (tail-owned)
	delivs []int32      // snapshot positions this shard delivers (head-owned)
}

// drainer owns the round machinery for one token type. All slices are
// reused across runs.
type drainer[T any] struct {
	g       *graph.Graph
	epoch   uint32
	arcs    []arcQueue[T]
	shards  []shard[T]
	shardOf []int32 // node -> owning shard, when len(shards) > 1
	h       handler[T]

	// shardOf was computed for shardG split into shardP shards; later runs
	// on the same graph and shard count reuse it.
	shardG *graph.Graph
	shardP int

	active    []int32 // ordered worklist of non-empty arcs
	snapshot  []int32
	popped    []T
	remain    []bool
	directAct bool // inline round: send appends activations straight to active

	// The helper pool: goroutine bodies kept across runs, and the spin
	// barrier the coordinator drives them with (cmd = seq<<2 | phase).
	loops    []func()
	poolUp   bool
	seq      uint32
	startCmd uint32
	cmd      atomic.Uint32
	pending  atomic.Int32
}

// prepare binds the drainer to g, resetting all reused state, and returns
// the shard count: one per CPU the Go scheduler runs on, at most one per
// node.
func (d *drainer[T]) prepare(g *graph.Graph) int {
	d.g = g
	if len(d.arcs) != g.NumArcs() {
		d.arcs = make([]arcQueue[T], g.NumArcs())
		d.epoch = 0
	}
	d.epoch++
	if d.epoch == 0 { // tag wrap: clear once, then restart at 1
		for i := range d.arcs {
			d.arcs[i] = arcQueue[T]{}
		}
		d.epoch = 1
	}

	p := shardCount
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if n := g.NumNodes(); p > n && n > 0 {
		p = n
	}
	if cap(d.shards) >= p {
		d.shards = d.shards[:p]
	} else {
		ns := make([]shard[T], p)
		copy(ns, d.shards)
		d.shards = ns
	}
	for w := range d.shards {
		s := &d.shards[w]
		s.arena.reset()
		s.newAct = s.newAct[:0]
		s.actCur = 0
	}
	if p > 1 && (d.shardG != g || d.shardP != p) {
		d.computeShardOf()
		d.shardG, d.shardP = g, p
	}
	d.active = d.active[:0]
	d.snapshot = d.snapshot[:0]
	return p
}

// computeShardOf assigns contiguous node ranges of roughly equal total arc
// count to shards (the congest engine's balancing rule).
func (d *drainer[T]) computeShardOf() {
	g := d.g
	n := g.NumNodes()
	p := len(d.shards)
	arcs := g.NumArcs()
	d.shardOf = resize(d.shardOf, n)
	prev := 0
	for w := 1; w <= p; w++ {
		bound := n
		if w < p {
			target := int32(int64(arcs) * int64(w) / int64(p))
			bound = sort.Search(n, func(u int) bool {
				lo, _ := g.ArcRange(graph.NodeID(u))
				return lo >= target
			})
			// Round to a 64-node boundary: shards then never share a word
			// of the per-task visited bitset (see bfs.go).
			bound = (bound + 63) &^ 63
			if bound > n {
				bound = n
			}
		}
		for u := prev; u < bound; u++ {
			d.shardOf[u] = int32(w - 1)
		}
		prev = bound
	}
}

func (d *drainer[T]) shardOfNode(v graph.NodeID) int {
	if len(d.shards) == 1 {
		return 0
	}
	return int(d.shardOf[v])
}

// seed pushes a token from the coordinator (task starts), appending newly
// activated arcs directly to the worklist in push order, exactly as a
// delivery-time activation would be ordered before the round's snapshot.
func (d *drainer[T]) seed(arc int32, tk T) {
	s := &d.shards[d.shardOfNode(d.g.ArcTail(arc))]
	if push(d.arcs, d.epoch, &s.arena, arc, tk) {
		d.active = append(d.active, arc)
	}
}

// send pushes a token from the delivery at snapshot position pos, which
// shard sh executes; the arc's tail is the delivering receiver, so sh owns
// the queue. During an inline round deliveries run in ascending position on
// one goroutine and the re-activated arcs are already on the worklist, so
// activations append straight to it — exactly their merged order.
func (d *drainer[T]) send(sh int, pos int32, arc int32, tk T) {
	s := &d.shards[sh]
	if push(d.arcs, d.epoch, &s.arena, arc, tk) {
		if d.directAct {
			d.active = append(d.active, arc)
			return
		}
		s.newAct = append(s.newAct, activation{pos: pos, arc: arc})
	}
}

// drive runs the round loop to quiescence: starts due this round, then one
// pop-and-deliver sweep of the active worklist. On ErrMaxRounds the
// accumulated message count is reported but Rounds/MaxArcLoad/MaxQueue stay
// zero, mirroring the seed scheduler's abort behavior. A cancellable
// opts.Ctx is polled once per round (a prefetched-channel select, no
// allocation), so cancellation aborts within one drain step with the same
// partial-stats shape as a budget overrun.
func (d *drainer[T]) drive(sp *startPlan, maxRounds int, opts Options) (Stats, error) {
	var stats Stats
	done := opts.done()
	round := 0
	for {
		for sp.next < len(sp.order) && sp.delay[sp.order[sp.next]] == int32(round) {
			d.h.start(sp.order[sp.next])
			sp.next++
		}
		if len(d.active) == 0 && !sp.pending() {
			break
		}
		if round >= maxRounds {
			return stats, reproerr.Errorf("", reproerr.KindBudgetExceeded, "%w (%d)", ErrMaxRounds, maxRounds)
		}
		if done != nil {
			select {
			case <-done:
				return stats, reproerr.FromContext("sched", opts.Ctx.Err())
			default:
			}
		}
		stats.Messages += int64(d.round())
		round++
	}
	stats.Rounds = round
	stats.MaxArcLoad = d.maxLoad()
	stats.MaxQueue = d.maxQueue()
	return stats, nil
}

// round executes one pop-and-deliver sweep and returns the tokens delivered.
func (d *drainer[T]) round() int {
	d.snapshot, d.active = d.active, d.snapshot[:0]
	n := len(d.snapshot)
	d.popped = resize(d.popped, n)
	if len(d.shards) == 1 || n < shardedRoundMin {
		d.stopPool() // idle helpers would spin through the inline rounds
		d.directAct = true
		d.roundInline()
		d.directAct = false
	} else {
		if !d.poolUp {
			d.startPool()
		}
		d.roundSharded()
		d.mergeActivations()
	}
	return n
}

// roundInline runs the sweep on the calling goroutine, using each arc's
// owner arena so state stays consistent with sharded rounds.
func (d *drainer[T]) roundInline() {
	g := d.g
	single := len(d.shards) == 1
	for i, arc := range d.snapshot {
		sh := 0
		if !single {
			sh = int(d.shardOf[g.ArcTail(arc)])
		}
		d.popped[i] = pop(d.arcs, &d.shards[sh].arena, arc)
		if d.arcs[arc].qlen > 0 {
			d.active = append(d.active, arc)
		}
	}
	for i, arc := range d.snapshot {
		sh := 0
		if !single {
			sh = int(d.shardOf[g.ArcTarget(arc)])
		}
		d.h.deliver(sh, int32(i), arc, d.popped[i])
	}
}

// roundSharded buckets the snapshot by owner, runs the pop phase and the
// deliver phase on the worker pool with a barrier between them, then
// reinstates still-non-empty arcs in snapshot order.
func (d *drainer[T]) roundSharded() {
	g := d.g
	for w := range d.shards {
		s := &d.shards[w]
		s.pops = s.pops[:0]
		s.delivs = s.delivs[:0]
	}
	d.remain = resize(d.remain, len(d.snapshot))
	for i, arc := range d.snapshot {
		tailSh := &d.shards[d.shardOf[g.ArcTail(arc)]]
		tailSh.pops = append(tailSh.pops, int32(i))
		headSh := &d.shards[d.shardOf[g.ArcTarget(arc)]]
		headSh.delivs = append(headSh.delivs, int32(i))
	}
	d.phase(phasePop)
	d.phase(phaseDeliver)
	for i, arc := range d.snapshot {
		if d.remain[i] {
			d.active = append(d.active, arc)
		}
	}
}

// phase runs one phase of a sharded round: the coordinator publishes the
// command, runs shard 0 itself, and waits for the other shards to report.
func (d *drainer[T]) phase(ph uint32) {
	d.pending.Store(int32(len(d.shards) - 1))
	d.seq++
	d.cmd.Store(d.seq<<2 | ph)
	if ph != phaseStop {
		d.runPhase(0, ph)
	}
	for spins := 0; d.pending.Load() != 0; spins++ {
		if spins >= spinLimit {
			runtime.Gosched()
		}
	}
}

func (d *drainer[T]) runPhase(w int, ph uint32) {
	s := &d.shards[w]
	if ph == phasePop {
		for _, pos := range s.pops {
			arc := d.snapshot[pos]
			d.popped[pos] = pop(d.arcs, &s.arena, arc)
			d.remain[pos] = d.arcs[arc].qlen > 0
		}
	} else {
		for _, pos := range s.delivs {
			d.h.deliver(w, pos, d.snapshot[pos], d.popped[pos])
		}
	}
}

// worker runs shard w's half of every phase the coordinator publishes
// until it publishes phaseStop.
func (d *drainer[T]) worker(w int) {
	last := d.startCmd
	for {
		c := d.cmd.Load()
		for spins := 0; c == last; spins++ {
			if spins >= spinLimit {
				runtime.Gosched()
			}
			c = d.cmd.Load()
		}
		last = c
		ph := c & 3
		if ph != phaseStop {
			d.runPhase(w, ph)
		}
		d.pending.Add(-1)
		if ph == phaseStop {
			return
		}
	}
}

// mergeActivations appends the round's newly activated arcs to the worklist
// in global push order: ascending snapshot position of the pushing delivery
// (positions are unique across shards), preserving per-shard push order.
func (d *drainer[T]) mergeActivations() {
	if len(d.shards) == 1 {
		s := &d.shards[0]
		for _, a := range s.newAct {
			d.active = append(d.active, a.arc)
		}
		s.newAct = s.newAct[:0]
		return
	}
	for {
		best := -1
		var bestPos int32
		for w := range d.shards {
			s := &d.shards[w]
			if s.actCur < len(s.newAct) {
				if p := s.newAct[s.actCur].pos; best < 0 || p < bestPos {
					best, bestPos = w, p
				}
			}
		}
		if best < 0 {
			break
		}
		s := &d.shards[best]
		d.active = append(d.active, s.newAct[s.actCur].arc)
		s.actCur++
	}
	for w := range d.shards {
		s := &d.shards[w]
		s.newAct = s.newAct[:0]
		s.actCur = 0
	}
}

// startPool launches the helper goroutines of shards 1..p-1 on the first
// sharded round of a run. Their bodies are built once per shard and reused
// by every later run, so a warm Runner starts its pool without allocating.
func (d *drainer[T]) startPool() {
	p := len(d.shards)
	for w := len(d.loops); w < p; w++ {
		d.loops = append(d.loops, func() { d.worker(w) })
	}
	d.startCmd = d.cmd.Load()
	for _, loop := range d.loops[1:p] {
		go loop()
	}
	d.poolUp = true
}

// stopPool stops the helpers startPool launched, if any, and waits until
// each has seen the stop.
func (d *drainer[T]) stopPool() {
	if !d.poolUp {
		return
	}
	d.phase(phaseStop)
	d.poolUp = false
}

// maxLoad returns the largest realized per-arc token count of this run.
func (d *drainer[T]) maxLoad() int {
	var m int32
	for i := range d.arcs {
		if q := &d.arcs[i]; q.epoch == d.epoch && q.load > m {
			m = q.load
		}
	}
	return int(m)
}

// maxQueue returns the largest backlog any push of this run observed.
func (d *drainer[T]) maxQueue() int {
	var m int32
	for w := range d.shards {
		if q := d.shards[w].arena.maxQ; q > m {
			m = q
		}
	}
	return int(m)
}
