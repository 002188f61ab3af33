package hmts_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/testutil"
)

// lmQuery is one standing query of the live-mutation fuzzer: a kind from
// a small menu, built on the shared prefix "pos", with the plain-Go
// per-element semantics its output is checked against.
type lmQuery struct {
	name    string
	kind    int // 0 filter, 1 map+filter, 2 sharded sum, 3 unsharded count
	c       int64
	sink    *memSink
	from    int // inputs pushed before the query was registered
	dropped bool
}

const lmKinds = 4

// lmPos is the shared prefix's predicate.
func lmPos(e hmts.Element) bool { return e.Key%5 != 4 }

// pass reports whether input e yields an output of the query.
func (q *lmQuery) pass(e hmts.Element) bool {
	switch q.kind {
	case 0:
		return lmPos(e) && e.Key%3 == q.c
	case 1:
		return lmPos(e) && e.Key%2 == q.c
	}
	return lmPos(e)
}

// build appends the query's private suffix to pos.
func (q *lmQuery) build(pos *hmts.Stream) *hmts.Stream {
	switch q.kind {
	case 0:
		return pos.Where(q.name+"/f", func(e hmts.Element) bool { return e.Key%3 == q.c })
	case 1:
		return pos.Map(q.name+"/m", func(e hmts.Element) hmts.Element { e.Val *= 2; return e }).
			Where(q.name+"/f", func(e hmts.Element) bool { return e.Key%2 == q.c })
	case 2:
		return pos.Aggregate(q.name, hmts.Sum, time.Hour, func(e hmts.Element) int64 { return e.Key }).
			Shard(int(q.c) + 1)
	}
	return pos.Aggregate(q.name, hmts.Count, time.Hour, func(e hmts.Element) int64 { return e.Key % 4 })
}

// reference returns the query's expected output over ins.
func (q *lmQuery) reference(ins []hmts.Element) []hmts.Element {
	var out []hmts.Element
	acc := make(map[int64]float64)
	for _, e := range ins {
		if !q.pass(e) {
			continue
		}
		switch q.kind {
		case 1:
			e.Val *= 2
		case 2:
			acc[e.Key] += e.Val
			e.Val = acc[e.Key]
		case 3:
			e.Key %= 4
			acc[e.Key]++
			e.Val = acc[e.Key]
		}
		out = append(out, e)
	}
	return out
}

// check compares the query's output with its reference. A query sees a
// contiguous run of the stream: from some input at or before the one
// pushed first after its registration (elements already upstream of the
// splice may or may not reach it) to the end, or — once dropped — to some
// point. Exactness is checked on that run.
func (q *lmQuery) check(t *testing.T, ins []hmts.Element) {
	got, done, after := q.sink.snapshot()
	if done != 1 || after != 0 {
		t.Fatalf("%s: done=%d afterDone=%d", q.name, done, after)
	}
	start := len(ins)
	if len(got) > 0 {
		for i, e := range ins {
			if e.TS == got[0].TS {
				start = i
				break
			}
		}
		if start == len(ins) {
			t.Fatalf("%s: first output %v matches no input", q.name, got[0])
		}
	}
	for i := q.from; i < start; i++ {
		if q.pass(ins[i]) {
			t.Fatalf("%s: input %d (%v), pushed after the registration, is missing", q.name, i, ins[i])
		}
	}
	want := q.reference(ins[start:])
	if q.dropped && len(got) < len(want) {
		want = want[:len(got)]
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", q.name, len(got), len(want))
	}
	for i := range want {
		if got[i].TS != want[i].TS || got[i].Key != want[i].Key || got[i].Val != want[i].Val {
			t.Fatalf("%s: result %d = %v, want %v", q.name, i, got[i], want[i])
		}
	}
}

// within runs fn and fails the test if it does not return in time.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// FuzzLiveMutation is the live-mutation oracle for a whole deployment: a
// random small plan on Block-policy bounded queues (bound 1–8), run at
// GOMAXPROCS 1 or 2, takes a fuzz-chosen interleaving of AddQuery,
// DropQuery, Reshard, SwitchMode and Rebalance between pushes. Every
// query's output must equal its never-mutated reference over the run of
// the stream it saw, no queue may drop an element (nothing is in flight
// across a mutation), the deployment must drain within a watchdog and no
// goroutine may leak. Shed is left out: it changes output by design.
//
// The bytes decode as: bound, procs, mode, key seed, the initial query
// count, then (op, arg) pairs; the initial queries take their kinds from
// the first pairs' args.
func FuzzLiveMutation(f *testing.F) {
	f.Add([]byte{0, 0, 4, 1, 2, 0, 2, 1, 5, 2, 1, 3, 0, 4, 2})
	f.Add([]byte{7, 1, 3, 9, 1, 0, 6, 2, 3, 1, 0, 0, 1, 3, 3, 2, 2})
	f.Add([]byte{3, 0, 0, 2, 3, 0, 1, 3, 7, 2, 2, 3, 1, 4, 0, 1, 1})
	f.Add([]byte{1, 1, 1, 5, 2, 2, 10, 1, 4, 0, 9, 3, 4, 2, 1, 4, 3, 1, 2})
	f.Add([]byte{5, 0, 2, 7, 1, 3, 6, 2, 5, 2, 3, 2, 0, 4, 4, 0, 3})
	f.Fuzz(liveMutation)
}

func liveMutation(t *testing.T, data []byte) {
	if len(data) < 5 {
		return
	}
	bound := 1 + int(data[0]%8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1 + int(data[1]%2)))
	modes := []hmts.Mode{hmts.ModeGTS, hmts.ModeOTS, hmts.ModeDI, hmts.ModePureDI, hmts.ModeHMTS}
	mode := modes[int(data[2])%len(modes)]
	seed := int64(data[3])
	nInit := 1 + int(data[4]%3)
	ops := data[5:]
	if len(ops) > 16 {
		ops = ops[:16]
	}

	testutil.VerifyNoLeaks(t)
	const total = 1500
	ins := make([]hmts.Element, total)
	for i := range ins {
		ins[i] = hmts.Element{TS: hmts.Time(i+1) * 1000, Key: (int64(i)*7 + seed) % 16, Val: float64(i % 5)}
	}
	eng := hmts.New()
	ext := hmts.External("in", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 16, Batch: 8})
	src := eng.Source("in", ext.Spec())
	pos := func() *hmts.Stream { return src.Where("pos", lmPos) }

	var qs []*lmQuery
	pushed := 0
	add := func(kind, c int) error {
		q := &lmQuery{name: fmt.Sprintf("q%d", len(qs)), kind: kind % lmKinds, sink: newMemSink(), from: pushed}
		switch q.kind {
		case 0:
			q.c = int64(c % 3)
		case 1, 2:
			q.c = int64(c % 2)
		}
		if err := eng.AddQuery(q.name, q.sink, func() (*hmts.Stream, error) { return q.build(pos()), nil }); err != nil {
			return err
		}
		qs = append(qs, q)
		return nil
	}
	live := func(pick byte, sharded bool) *lmQuery {
		var cand []*lmQuery
		for _, q := range qs {
			if !q.dropped && (!sharded || q.kind == 2) {
				cand = append(cand, q)
			}
		}
		if len(cand) == 0 {
			return nil
		}
		return cand[int(pick)%len(cand)]
	}
	for i := 0; i < nInit; i++ {
		arg := i
		if 2*i+1 < len(ops) {
			arg = int(ops[2*i+1])
		}
		if err := add(arg, arg/lmKinds); err != nil {
			t.Fatal(err)
		}
	}
	eng.MustRun(hmts.RunConfig{Mode: mode, QueueBound: bound, Batch: 4})

	chunk := total / (len(ops)/2 + 1)
	push := func(n int) {
		for ; n > 0 && pushed < total; n-- {
			if !ext.Push(ins[pushed]) {
				t.Fatalf("push %d rejected under Block policy", pushed)
			}
			pushed++
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		push(chunk)
		op, arg := ops[i]%5, ops[i+1]
		switch op {
		case 0:
			within(t, "AddQuery", func() error { return add(int(arg), int(arg)/lmKinds) })
		case 1:
			if q := live(arg, false); q != nil {
				within(t, "DropQuery", func() error { return eng.DropQuery(q.name) })
				q.dropped = true
			}
		case 2:
			if q := live(arg, true); q != nil {
				within(t, "Reshard", func() error { return eng.Reshard(q.name, 1+int(arg%4)) })
			}
		case 3:
			within(t, "SwitchMode", func() error { return eng.SwitchMode(modes[int(arg)%len(modes)], "") })
		case 4:
			within(t, "Rebalance", eng.Rebalance)
		}
	}
	push(total)
	ext.Close()
	within(t, "Wait", func() error { eng.Wait(); return eng.Err() })

	for _, q := range qs {
		q.sink.wait(t)
		q.check(t, ins)
	}
	for _, q := range eng.Deployment().Queues() {
		if q.Dropped() != 0 {
			t.Fatalf("queue %s dropped %d elements", q.Name(), q.Dropped())
		}
	}
	for _, m := range eng.Metrics().Ingest {
		if m.Dropped != 0 {
			t.Fatalf("ingress %s dropped %d elements", m.Name, m.Dropped)
		}
	}
}
