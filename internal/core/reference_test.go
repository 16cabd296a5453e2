package core

import (
	"math/rand"
	"testing"
	"time"
)

// refSched is a behavioral port of the pre-refactor Scheduler: a plain
// slice global queue with O(n) splice removal, string-keyed map state for
// local queues / draining / per-round taken sets, and no pooling. It
// exists only as the equivalence oracle for TestScheduleEquivalence: the
// optimized Scheduler (ring buffer, dense ords, bitsets) must produce the
// exact dispatch sequence this implementation produces, under every
// policy, including draining churn. Request skip counts are tracked in a
// side table so the oracle never touches the shared Request.visits field.
type refSched struct {
	policy   Policy
	limit    int
	noPark   bool
	b        *mockBackend
	global   []*Request
	visits   map[int64]int
	local    map[string][]parked
	localSum map[string]time.Duration
	draining map[string]bool
}

func newRefSched(policy Policy, limit int, b *mockBackend) *refSched {
	if policy != LALBO3 {
		limit = 0
	}
	return &refSched{
		policy:   policy,
		limit:    limit,
		b:        b,
		visits:   map[int64]int{},
		local:    map[string][]parked{},
		localSum: map[string]time.Duration{},
		draining: map[string]bool{},
	}
}

func (s *refSched) enqueue(r *Request) { s.global = append(s.global, r) }

func (s *refSched) removeGlobal(i int) *Request {
	r := s.global[i]
	s.global = append(s.global[:i], s.global[i+1:]...)
	return r
}

func (s *refSched) pendingTotal() int {
	n := len(s.global)
	for _, q := range s.local {
		n += len(q)
	}
	return n
}

func (s *refSched) schedule(now time.Duration) []Dispatch {
	var out []Dispatch
	taken := map[string]bool{}
	busy := func(id string) bool { return taken[id] || s.b.busy[id] }
	var idle []string
	for _, id := range s.b.gpus {
		if !s.b.busy[id] {
			idle = append(idle, id)
		}
	}
	for {
		progressed := false
		for _, id := range idle {
			if busy(id) {
				continue
			}
			d, ok := s.scheduleIdleGPU(id, now, busy, taken)
			if ok {
				out = append(out, d...)
				progressed = true
			}
		}
		if !progressed {
			return out
		}
	}
}

func (s *refSched) scheduleIdleGPU(gpuID string, now time.Duration, busy func(string) bool, taken map[string]bool) ([]Dispatch, bool) {
	if q := s.local[gpuID]; len(q) > 0 {
		p := q[0]
		s.local[gpuID] = q[1:]
		s.localSum[gpuID] -= p.infer
		taken[gpuID] = true
		return []Dispatch{{
			Req: p.req, GPU: gpuID,
			ExpectHit:      s.b.cached[gpuID][p.req.Model],
			FromLocalQueue: true,
		}}, true
	}
	if s.draining[gpuID] {
		return nil, false
	}
	if len(s.global) == 0 {
		return nil, false
	}
	if s.policy == LB {
		r := s.removeGlobal(0)
		taken[gpuID] = true
		return []Dispatch{{Req: r, GPU: gpuID, ExpectHit: s.b.cached[gpuID][r.Model]}}, true
	}
	var all []Dispatch
	i := 0
	for i < len(s.global) {
		r := s.global[i]
		if s.b.cached[gpuID][r.Model] {
			s.removeGlobal(i)
			taken[gpuID] = true
			all = append(all, Dispatch{Req: r, GPU: gpuID, ExpectHit: true})
			return all, true
		}
		if s.visits[r.ID] >= s.limit {
			d, tookThis := s.llb(gpuID, i, now, busy, taken)
			all = append(all, d...)
			if tookThis {
				return all, true
			}
			continue
		}
		s.visits[r.ID]++
		i++
	}
	for len(s.global) > 0 {
		before := len(s.global)
		d, tookThis := s.llb(gpuID, 0, now, busy, taken)
		all = append(all, d...)
		if tookThis {
			return all, true
		}
		if len(s.global) == before {
			break
		}
	}
	return all, len(all) > 0
}

func (s *refSched) llb(gpuID string, idx int, now time.Duration, busy func(string) bool, taken map[string]bool) ([]Dispatch, bool) {
	r := s.global[idx]
	var holders []string
	for _, g := range s.b.gpus {
		if s.b.cached[g][r.Model] {
			holders = append(holders, g)
		}
	}
	if len(holders) == 0 {
		s.removeGlobal(idx)
		taken[gpuID] = true
		return []Dispatch{{Req: r, GPU: gpuID, ExpectHit: false}}, true
	}
	for _, h := range holders {
		if s.draining[h] {
			continue
		}
		if h == gpuID {
			s.removeGlobal(idx)
			taken[gpuID] = true
			return []Dispatch{{Req: r, GPU: gpuID, ExpectHit: true}}, true
		}
		if !busy(h) {
			s.removeGlobal(idx)
			taken[h] = true
			return []Dispatch{{Req: r, GPU: h, ExpectHit: true}}, false
		}
	}
	if !s.noPark {
		bestGPU := ""
		var bestFinish time.Duration
		for _, h := range holders {
			if s.draining[h] {
				continue
			}
			fin := s.b.finish[h] + s.localSum[h]
			if bestGPU == "" || fin < bestFinish {
				bestGPU, bestFinish = h, fin
			}
		}
		if bestGPU != "" && bestFinish < s.b.load[r.Model] {
			s.removeGlobal(idx)
			infer := s.b.infer[r.Model]
			s.local[bestGPU] = append(s.local[bestGPU], parked{req: r, infer: infer})
			s.localSum[bestGPU] += infer
			return nil, false
		}
	}
	s.removeGlobal(idx)
	taken[gpuID] = true
	return []Dispatch{{Req: r, GPU: gpuID, ExpectHit: false}}, true
}

// TestScheduleEquivalence drives the Scheduler and the pre-refactor
// oracle through identical randomized workloads — arrivals, completions,
// cache churn, draining flips — and requires identical dispatch sequences
// at every round, for all three policies. The oracle keeps its skip
// counts in a side table, so both can share the Request objects.
func TestScheduleEquivalence(t *testing.T) {
	models := []string{"m0", "m1", "m2", "m3", "m4", "m5"}
	policies := []struct {
		p     Policy
		limit int
	}{{LB, 0}, {LALB, 0}, {LALBO3, 2}, {LALBO3, 25}}
	for _, pc := range policies {
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nGPU := 2 + rng.Intn(4)
			names := make([]string, nGPU)
			for i := range names {
				names[i] = "g" + string(rune('0'+i))
			}
			b := newMock(names...)
			for _, m := range models {
				b.setModel(m, time.Duration(1+rng.Intn(5))*time.Second,
					time.Duration(1+rng.Intn(3))*time.Second)
			}
			s := newSched(t, pc.p, pc.limit, b)
			ref := newRefSched(pc.p, pc.limit, b)

			compare := func(round int, got, want []Dispatch) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%v seed=%d round %d: %d dispatches, oracle %d\n got: %+v\nwant: %+v",
						pc.p, seed, round, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i].Req.ID != want[i].Req.ID || got[i].GPU != want[i].GPU ||
						got[i].ExpectHit != want[i].ExpectHit ||
						got[i].FromLocalQueue != want[i].FromLocalQueue {
						t.Fatalf("%v seed=%d round %d dispatch %d: got %+v, oracle %+v",
							pc.p, seed, round, i, got[i], want[i])
					}
				}
			}
			apply := func(ds []Dispatch) {
				for _, d := range ds {
					g := d.GPU
					if !b.cached[g][d.Req.Model] {
						if len(b.cached[g]) >= 2 { // evict deterministically
							for _, victim := range models {
								if b.cached[g][victim] {
									delete(b.cached[g], victim)
									break
								}
							}
						}
						b.cached[g][d.Req.Model] = true
					}
					b.busy[g] = true
					b.finish[g] = b.infer[d.Req.Model]
				}
			}

			var now time.Duration
			for round := 0; round < 60; round++ {
				switch rng.Intn(4) {
				case 0, 1: // arrival
					r := &Request{ID: int64(round), Model: models[rng.Intn(len(models))], BatchSize: 32, Arrival: now}
					if err := s.Enqueue(r); err != nil {
						t.Fatal(err)
					}
					ref.enqueue(r)
				case 2: // completion
					for _, g := range names {
						if b.busy[g] {
							b.busy[g] = false
							b.finish[g] = 0
							break
						}
					}
				case 3: // draining churn
					g := names[rng.Intn(nGPU)]
					on := rng.Intn(2) == 0
					s.SetDraining(g, on)
					ref.draining[g] = on
				}
				got := s.Schedule(now)
				compare(round, got, ref.schedule(now))
				apply(got)
				now += time.Second
			}
			// Drain: clear draining flags and complete everything.
			for _, g := range names {
				s.SetDraining(g, false)
				ref.draining[g] = false
			}
			for round := 60; round < 300 && (s.PendingTotal() > 0 || anyBusy(b)); round++ {
				for _, g := range names {
					b.busy[g] = false
					b.finish[g] = 0
				}
				got := s.Schedule(now)
				compare(round, got, ref.schedule(now))
				apply(got)
				now += time.Second
			}
			if s.PendingTotal() != ref.pendingTotal() {
				t.Fatalf("%v seed=%d: pending %d, oracle %d", pc.p, seed, s.PendingTotal(), ref.pendingTotal())
			}
			if s.PendingTotal() != 0 {
				t.Fatalf("%v seed=%d: %d requests never drained", pc.p, seed, s.PendingTotal())
			}
		}
	}
}

func anyBusy(b *mockBackend) bool {
	for _, g := range b.gpus {
		if b.busy[g] {
			return true
		}
	}
	return false
}
