package report

import (
	"strings"
	"testing"

	"discovery/internal/core"
	"discovery/internal/mir"
	"discovery/internal/trace"
)

// tracedMapProgram builds and analyzes a tiny kernel with a known map.
func tracedMapProgram(t *testing.T) (*mir.Program, *core.Result) {
	t.Helper()
	p := mir.NewProgram("demo")
	p.DeclareStatic("in", 4)
	p.DeclareStatic("out", 4)
	p.DeclareStatic("sink", 4)
	f, b := p.NewFunc("main", "demo.c")
	b.For("i", mir.C(0), mir.C(4), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("in"), mir.V("i")), mir.FDiv(mir.I2F(mir.V("i")), mir.F(4)))
	})
	b.For("i", mir.C(0), mir.C(4), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("out"), mir.V("i")),
			mir.FMul(mir.Load(mir.Idx(mir.G("in"), mir.V("i"))), mir.F(3)))
	})
	b.For("i", mir.C(0), mir.C(4), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("sink"), mir.V("i")),
			mir.FSub(mir.Load(mir.Idx(mir.G("out"), mir.V("i"))), mir.F(1)))
	})
	b.Finish(f)
	res, err := trace.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, core.Find(res.Graph, core.Options{})
}

func TestAnnotations(t *testing.T) {
	p, res := tracedMapProgram(t)
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns found")
	}
	ann := Annotations(res.Graph, res.Patterns)
	if len(ann["demo.c"]) == 0 {
		t.Fatal("no annotated lines")
	}
	found := false
	for _, list := range ann["demo.c"] {
		for _, a := range list {
			if a.Kind == "map" && strings.Contains(a.Ops, "fmul") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("map annotation missing: %v", ann)
	}
	_ = p
}

func TestTextReport(t *testing.T) {
	p, res := tracedMapProgram(t)
	text := Text(p, res)
	for _, want := range []string{"==== demo.c", "for (i = 0; i < 4", "^ map"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

func TestSummary(t *testing.T) {
	_, res := tracedMapProgram(t)
	s := Summary(res)
	for _, want := range []string{"DDG:", "patterns reported:", "map"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestHTMLReport(t *testing.T) {
	p, res := tracedMapProgram(t)
	h := HTML(p, res)
	for _, want := range []string{"<!DOCTYPE html>", "demo.c", `class="line hit"`, `class="ann"`} {
		if !strings.Contains(h, want) {
			t.Errorf("html report missing %q", want)
		}
	}
	if strings.Contains(h, "<script") {
		t.Error("unexpected script tag")
	}
}

func TestDedupe(t *testing.T) {
	a := Annotation{Kind: "map", Ops: "fmul"}
	b := Annotation{Kind: "map", Ops: "fadd"}
	out := dedupe([]Annotation{a, b, a, b, a})
	if len(out) != 2 {
		t.Fatalf("dedupe kept %d", len(out))
	}
	if out[0].Ops != "fadd" { // sorted
		t.Errorf("order: %v", out)
	}
}
