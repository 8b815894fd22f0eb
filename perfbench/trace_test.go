package main

import "testing"

func sp(id, parent int32, start, end int64) span {
	return span{Name: "s", ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		sp(0, noSpan, 0, 100), // root
		sp(1, 0, 10, 30),      // child
		sp(2, 0, 20, 50),      // child overlapping the first: union 10..50
		sp(3, 1, 12, 18),      // grandchild: only its parent subtracts it
		sp(4, 0, 90, 130),     // child running past the parent's end
		sp(5, noSpan, 200, 260),
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		0: 100 - 40 - 10, // 10..50 and 90..100 covered
		1: 20 - 6,
		2: 30,
		3: 6,
		4: 40,
		5: 60,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeCountsParallelChildrenOnce(t *testing.T) {
	// Two workers' children under one round span, fully overlapping.
	spans := []span{
		sp(0, noSpan, 0, 100),
		sp(1, 0, 0, 80),
		sp(2, 0, 0, 90),
		sp(3, 0, 95, 95), // empty child
	}
	if got := selfTimes(spans)[0]; got != 10 {
		t.Errorf("round self time = %d, want 10", got)
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("off", noSpan, reqID{}); id != noSpan {
		t.Fatalf("disabled tracer opened span %d", id)
	}
	tr.setOn(true)
	parent := tr.begin("parent", noSpan, clientRound(3, 1))
	child := tr.add("child", parent, clientRound(3, 1), tr.now(), tr.now())
	tr.end(parent)
	open := tr.begin("open", noSpan, reqID{}) // never ended: not reported
	_ = open
	tr.setOn(false)
	spans := tr.closed()
	if len(spans) != 2 {
		t.Fatalf("%d closed spans, want 2", len(spans))
	}
	if spans[1].Parent != parent || spans[1].ID != child {
		t.Errorf("child span %+v, want parent %d", spans[1], parent)
	}
	if spans[0].Req != (reqID{Round: 3, Client: 1, Frame: -1}) {
		t.Errorf("request id %+v", spans[0].Req)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", noSpan, reqID{}); id != noSpan {
		t.Errorf("nil tracer opened span %d", id)
	}
	nilTracer.end(0)
}
