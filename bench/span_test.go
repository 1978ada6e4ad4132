package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "step", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.pass", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "apiserver.bind", Start: 20, End: 30},
		{ID: 3, Parent: 0, Name: "monitor.probe", Start: 50, End: 70},
		{ID: 4, Parent: noSpan, Name: "step", Start: 100, End: 130},
	}
	self := selfTimes(spans)
	want := []int64{100 - 30 - 20, 30 - 10, 10, 20, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	idx := indexSpans(spans)
	step := idx.get("step")
	if step.count != 2 || step.childless != 1 || step.busyNS != 130 || step.selfNS != 80 {
		t.Errorf("step stats = %+v", *step)
	}
	if idx.get("absent").count != 0 {
		t.Error("a missing name must read as zero")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two members of a round pass concurrently: their union covers 10..60,
	// not 30+40.
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "core.round", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.pass", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "core.pass", Start: 20, End: 60},
		{ID: 3, Parent: 0, Name: "core.pass", Start: 90, End: 120}, // clipped to the parent
	}
	if got := selfTimes(spans)[0]; got != 100-50-10 {
		t.Errorf("round self time = %d, want 40", got)
	}
}

func TestRenumberKeepsFamilies(t *testing.T) {
	in := []span{
		{ID: 7, Parent: 3, Name: "child-of-absent"},
		{ID: 9, Parent: noSpan, Name: "root"},
		{ID: 12, Parent: 9, Name: "child"},
	}
	out := renumber(in)
	if out[0].ID != 0 || out[0].Parent != noSpan {
		t.Errorf("a parent outside the slice must become a root: %+v", out[0])
	}
	if out[2].ID != 2 || out[2].Parent != 1 {
		t.Errorf("child must follow its renumbered parent: %+v", out[2])
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", noSpan)
	if id != noSpan || tr.end(id) != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
	tr.rename(id, "y")
	tr.setRep(3)
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	tr.setRep(2)
	root := tr.begin("step", noSpan)
	kid := tr.begin("core.pass", root)
	tr.end(kid)
	tr.rename(kid, "core.pass.idle")
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Name != "core.pass.idle" || spans[1].Rep != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Start > spans[1].Start || spans[1].End > spans[0].End {
		t.Errorf("child must nest inside its parent: %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeSpans(path, "w", spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != "w" || len(doc.Spans) != 2 || doc.Spans[1] != spans[1] {
		t.Errorf("round trip = %+v", doc)
	}
}
