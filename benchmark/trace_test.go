package main

import "testing"

func sp(id, parent int32, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeNested(t *testing.T) {
	// leg [0,100] > txn [10,90] > get [20,40], commit [50,85]
	spans := []Span{
		sp(0, -1, "leg", 0, 100),
		sp(1, 0, "txn", 10, 90),
		sp(2, 1, "get", 20, 40),
		sp(3, 1, "commit", 50, 85),
	}
	want := []int64{20, 25, 20, 35}
	got := selfTimes(spans)
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's duration 100", sum)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two concurrent children cover [10,60] between them, a third is
	// disjoint, a fourth sticks out past the parent and is clipped.
	spans := []Span{
		sp(0, -1, "parent", 0, 100),
		sp(1, 0, "a", 10, 50),
		sp(2, 0, "b", 30, 60),
		sp(3, 0, "c", 70, 80),
		sp(4, 0, "d", 95, 120),
	}
	got := selfTimes(spans)
	// Covered: [10,60] = 50, [70,80] = 10, [95,100] = 5.
	if got[0] != 35 {
		t.Errorf("parent self = %d, want 35", got[0])
	}
	if got[1] != 40 || got[2] != 30 || got[3] != 10 || got[4] != 25 {
		t.Errorf("leaf self times = %v, want their durations", got[1:])
	}
}

func TestSelfTimeChildInsideSibling(t *testing.T) {
	spans := []Span{
		sp(0, -1, "parent", 0, 100),
		sp(1, 0, "outer", 10, 90),
		sp(2, 0, "inner", 20, 30), // same parent, fully inside its sibling
	}
	if got := selfTimes(spans)[0]; got != 20 {
		t.Errorf("parent self = %d, want 20", got)
	}
}

func TestLaneRecordsParentsAndRequestIDs(t *testing.T) {
	tr := newTracer()
	ln := tr.lane(nil)
	ln.begin("leg.read", 0)
	ln.begin("txn", 7)
	ln.begin("engine.get", 7)
	ln.end()
	ln.end()
	ln.begin("txn", 8)
	ln.end()
	ln.end()
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(tr.spans))
	}
	wantParent := []int32{-1, 0, 1, 0}
	for i, sp := range tr.spans {
		if sp.Parent != wantParent[i] {
			t.Errorf("span %d (%s) parent %d, want %d", i, sp.Name, sp.Parent, wantParent[i])
		}
		if sp.End < sp.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if tr.spans[2].Req != 7 || tr.spans[3].Req != 8 {
		t.Errorf("request ids %d, %d; want 7, 8", tr.spans[2].Req, tr.spans[3].Req)
	}
}
