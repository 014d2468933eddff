package serve

import (
	"context"
	"fmt"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/reproerr"
)

// ServeBatch answers a batch of queries on one checked-out executor with
// one pinned snapshot: against a store-backed server, a concurrent epoch
// swap never splits a batch across snapshots. SSSP queries are grouped so a
// source that appears several times is walked once and its distances are
// copied to the duplicates; other kinds are answered individually. The
// returned slice is aligned with the input, and every answer is identical
// to what Serve would return for the same query.
func (s *Server) ServeBatch(queries []Query) ([]Answer, error) {
	return s.ServeBatchCtx(nil, queries)
}

// ServeBatchCtx is ServeBatch with cooperative cancellation: the context
// gates the executor checkout and is polled between the SSSP group's tree
// walks and threaded into the other queries — a canceled batch aborts
// within one walk, returns a reproerr.KindCanceled/KindDeadline error
// wrapping ctx.Err(), and leaves the executor pool fully usable for the
// next query. A nil ctx behaves like context.Background.
func (s *Server) ServeBatchCtx(ctx context.Context, queries []Query) ([]Answer, error) {
	answers := make([]Answer, len(queries))

	var ssspIdx []int
	for i, q := range queries {
		if q == nil {
			return nil, reproerr.Invalid("serve", "batch query %d: nil query", i)
		}
		if _, ok := q.(SSSPQuery); ok {
			ssspIdx = append(ssspIdx, i)
		}
	}
	l, wait, err := s.timedCheckout(ctx)
	if err != nil {
		return nil, err
	}
	defer s.release(l)
	var gr groupRun
	if len(ssspIdx) > 1 {
		t0 := s.m.nowIf()
		gr, err = s.serveSSSPGroup(ctx, l, queries, ssspIdx, answers)
		s.m.record(KindSSSP, kernelWalk, l, int32(gr.tasks), wait, s.m.sinceNs(t0), err)
		if err != nil {
			return nil, fmt.Errorf("serve: batched sssp: %w", err)
		}
	}
	for i, q := range queries {
		if answers[i] != nil {
			continue
		}
		t0 := s.m.nowIf()
		a, err := s.serveOn(ctx, l, q)
		kernel := kernelForKind(q.queryKind())
		s.m.record(q.queryKind(), kernel, l, 1, 0, s.m.sinceNs(t0), err)
		if err != nil {
			return nil, fmt.Errorf("serve: batch query %d (%v): %w", i, kindOf(q), err)
		}
		s.m.kernelRun(kernel)
		answers[i] = a
	}
	// Count only delivered work: a failed batch delivers nothing (including
	// its coalescing counts — the group may have executed, but its answers
	// were never handed out).
	for _, a := range answers {
		s.served[a.answerKind()].Add(1)
	}
	s.batches.Add(1)
	s.batched.Add(int64(len(queries)))
	s.coalesceIn.Add(int64(gr.in))
	s.coalesceOut.Add(int64(gr.tasks))
	return answers, nil
}

func kindOf(q Query) any {
	if q == nil {
		return "nil"
	}
	return q.queryKind()
}

// serveSSSPGroup answers every SSSP query of the batch through
// serveSSSPDists, then materializes one answer per query — the same answer
// Serve gives, walk cost included.
func (s *Server) serveSSSPGroup(ctx context.Context, l lease, queries []Query, idx []int, answers []Answer) (groupRun, error) {
	sn, ex := l.sn, l.ex
	n := sn.g.NumNodes()
	srcs := ex.batchSrcs[:0]
	for _, i := range idx {
		srcs = append(srcs, queries[i].(SSSPQuery).Source)
	}
	ex.batchSrcs = srcs
	if cap(ex.batchDists) >= len(idx) {
		ex.batchDists = ex.batchDists[:len(idx)]
	} else {
		ex.batchDists = make([][]float64, len(idx))
	}
	for t := range ex.batchDists {
		ex.batchDists[t] = make([]float64, n) // escapes into the answer below
	}
	gr, err := s.serveSSSPDists(ctx, l, srcs, ex.batchDists)
	if err != nil {
		return gr, err
	}
	for t, i := range idx {
		answers[i] = &SSSPAnswer{
			Source: srcs[t],
			Dist:   ex.batchDists[t],
			Cost:   cost.Cost{Rounds: sn.servRounds, Messages: sn.servMessages},
		}
		ex.batchDists[t] = nil // the answer owns it now; don't pin it in the pool
	}
	return gr, nil
}

// groupRun reports one batched SSSP group: the walk count after
// duplicate-root coalescing, and the queries that entered the group (0 on
// error).
type groupRun struct {
	tasks int
	in    int
}

// serveSSSPDists is the batch-group core shared by ServeBatch and the warm
// ServeSSSPBatchInto path: it writes slot i's weighted tree distances from
// srcs[i] into dsts[i] (each already sized to NumNodes).
//
// Duplicate sources are coalesced first — the gateway-coalescing
// primitive: each distinct root is walked once with sssp.DistancesInto on
// the executor's scratch, and duplicate slots are filled by copying the
// first slot's distances. The context is polled between walks.
func (s *Server) serveSSSPDists(ctx context.Context, l lease, srcs []graph.NodeID, dsts [][]float64) (groupRun, error) {
	sn, ex := l.sn, l.ex
	n := sn.g.NumNodes()
	// Coalesce: rootMark is all-zero outside this window; it holds 1+task
	// for roots seen in this batch and is re-zeroed before walking (O(batch),
	// not O(n)).
	ex.rootMark = growInt32(ex.rootMark, n)
	ex.taskOf = growInt32(ex.taskOf, len(srcs))
	taskSlot := ex.taskSlot[:0]
	var badSrc graph.NodeID = -1
	for i, src := range srcs {
		if src < 0 || int(src) >= n {
			badSrc = src
			break
		}
		if m := ex.rootMark[src]; m != 0 {
			ex.taskOf[i] = m - 1
			continue
		}
		taskSlot = append(taskSlot, int32(i))
		ex.rootMark[src] = int32(len(taskSlot))
		ex.taskOf[i] = int32(len(taskSlot) - 1)
	}
	ex.taskSlot = taskSlot
	for _, fs := range taskSlot {
		ex.rootMark[srcs[fs]] = 0
	}
	if badSrc != -1 {
		return groupRun{}, reproerr.Invalid("sssp", "source %d out of range [0,%d)", badSrc, n)
	}

	var err error
	if s.prof != nil {
		err = s.walkRootsProf(ctx, l, srcs, dsts)
	} else {
		err = walkRoots(ctx, l, srcs, dsts)
	}
	if err != nil {
		return groupRun{tasks: len(taskSlot)}, err
	}
	s.m.group(len(srcs), len(taskSlot))

	for i := range srcs {
		t := ex.taskOf[i]
		if fs := int(ex.taskSlot[t]); fs != i {
			copy(dsts[i], dsts[fs]) // coalesced duplicate: fan the answer out
		}
	}
	return groupRun{tasks: len(taskSlot), in: len(srcs)}, nil
}

// walkRoots runs one warm tree walk per distinct root (the executor's
// taskSlot), polling ctx before each.
func walkRoots(ctx context.Context, l lease, srcs []graph.NodeID, dsts [][]float64) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	ti, ex := l.sn.ti, l.ex
	for _, fs := range ex.taskSlot {
		if done != nil {
			select {
			case <-done:
				return reproerr.FromContext("serve", ctx.Err())
			default:
			}
		}
		if _, err := ti.DistancesInto(dsts[fs], srcs[fs], &ex.treeScratch); err != nil {
			return err
		}
	}
	return nil
}

// walkRootsProf is walkRoots under the walk kernel's pprof label set — its
// own method so the closure's captures heap-allocate only when profiling is
// on (the unprofiled warm batch path asserts 0 allocs/op).
func (s *Server) walkRootsProf(ctx context.Context, l lease, srcs []graph.NodeID, dsts [][]float64) (err error) {
	doProf(ctx, s.prof.kernel[kernelWalk], func() { err = walkRoots(ctx, l, srcs, dsts) })
	return err
}

// ServeSSSPBatchInto is the allocation-free warm batch path: each distinct
// source is walked once over the snapshot tree on one executor (see
// serveSSSPDists), and slot i's weighted distances are written into dst[i]. dst is grown to len(srcs)
// rows and each row to NumNodes, reusing capacity; the grown dst is
// returned. With warm capacity and a warm executor the whole batch performs
// zero allocations — the property CI's benchmark smoke asserts.
func (s *Server) ServeSSSPBatchInto(dst [][]float64, srcs []graph.NodeID) ([][]float64, error) {
	return s.ServeSSSPBatchIntoCtx(nil, dst, srcs)
}

// ServeSSSPBatchIntoCtx is ServeSSSPBatchInto with cooperative cancellation
// gating the executor checkout and polled between walks.
func (s *Server) ServeSSSPBatchIntoCtx(ctx context.Context, dst [][]float64, srcs []graph.NodeID) ([][]float64, error) {
	if len(srcs) == 0 {
		return dst[:0], nil
	}
	l, wait, err := s.timedCheckout(ctx)
	if err != nil {
		return dst, err
	}
	defer s.release(l)
	n := l.sn.g.NumNodes()
	if cap(dst) < len(srcs) {
		nd := make([][]float64, len(srcs))
		copy(nd, dst)
		dst = nd
	} else {
		dst = dst[:len(srcs)]
	}
	for i := range dst {
		if cap(dst[i]) < n {
			dst[i] = make([]float64, n)
		} else {
			dst[i] = dst[i][:n]
		}
	}
	t0 := s.m.nowIf()
	gr, err := s.serveSSSPDists(ctx, l, srcs, dst)
	s.m.record(KindSSSP, kernelWalk, l, int32(gr.tasks), wait, s.m.sinceNs(t0), err)
	if err != nil {
		return dst, err
	}
	s.served[KindSSSP].Add(int64(len(srcs)))
	s.batches.Add(1)
	s.batched.Add(int64(len(srcs)))
	s.coalesceIn.Add(int64(gr.in))
	s.coalesceOut.Add(int64(gr.tasks))
	return dst, nil
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
