package lang

import (
	"strings"
	"testing"
	"time"
)

func parseRun(t *testing.T, src string) *Run {
	t.Helper()
	st, err := ParseOne(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	r, ok := st.(*Run)
	if !ok {
		t.Fatalf("parsed %T, want *Run", st)
	}
	return r
}

func TestParseQ1(t *testing.T) {
	r := parseRun(t, "Q1 = run classification on training_data.txt;")
	if r.Result != "Q1" || r.Task != "classification" || r.TaskIsFunc {
		t.Fatalf("parsed %+v", r)
	}
	if len(r.Sources) != 1 || r.Sources[0].Path != "training_data.txt" || r.Sources[0].Lo != 0 {
		t.Fatalf("sources = %+v", r.Sources)
	}
}

func TestParseQ2WithHavingAndColumns(t *testing.T) {
	r := parseRun(t, `Q2 = run classification
		on input_data.txt:2, input_data.txt:4-20,
		having time 1h30m, epsilon 0.01, max iter 1000;`)
	if len(r.Sources) != 2 {
		t.Fatalf("sources = %+v", r.Sources)
	}
	if r.Sources[0].Lo != 2 || r.Sources[0].Hi != 2 {
		t.Fatalf("label column = %+v", r.Sources[0])
	}
	if r.Sources[1].Lo != 4 || r.Sources[1].Hi != 20 {
		t.Fatalf("feature range = %+v", r.Sources[1])
	}
	if r.Time != 90*time.Minute {
		t.Fatalf("time = %v, want 1h30m", r.Time)
	}
	if r.Epsilon != 0.01 || r.MaxIter != 1000 {
		t.Fatalf("epsilon/maxiter = %g/%d", r.Epsilon, r.MaxIter)
	}
}

func TestParseQ3WithUsing(t *testing.T) {
	r := parseRun(t, `Q3 = run classification on input_data.txt
		using algorithm SGD, convergence cnvg(), step 1, sampler my_sampler();`)
	if r.Algorithm != "SGD" || r.Convergence != "cnvg" || r.Sampler != "my_sampler" {
		t.Fatalf("using = %+v", r)
	}
	if !r.HasStep || r.Step != 1 {
		t.Fatalf("step = %v/%g", r.HasStep, r.Step)
	}
}

func TestParseGradientFunctionTask(t *testing.T) {
	r := parseRun(t, "run hinge() on data.txt;")
	if r.Task != "hinge" || !r.TaskIsFunc {
		t.Fatalf("parsed %+v", r)
	}
}

func TestParseUnassignedRun(t *testing.T) {
	r := parseRun(t, "run regression on d.csv having epsilon 1e-4;")
	if r.Result != "" || r.Epsilon != 1e-4 {
		t.Fatalf("parsed %+v", r)
	}
}

func TestParsePersist(t *testing.T) {
	st, err := ParseOne("persist Q1 on my_model.txt;")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := st.(*Persist)
	if !ok || p.Model != "Q1" || p.Path != "my_model.txt" {
		t.Fatalf("parsed %+v", st)
	}
}

func TestParsePredict(t *testing.T) {
	st, err := ParseOne("result = predict on test_data.txt with my_model.txt;")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := st.(*Predict)
	if !ok || p.Result != "result" || p.Data != "test_data.txt" || p.Model != "my_model.txt" {
		t.Fatalf("parsed %+v", st)
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := Parse(`
		# train then evaluate
		Q1 = run classification on train.txt having epsilon 0.01;
		persist Q1 on model.txt;
		r = predict on test.txt with model.txt;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("statements = %d, want 3", len(stmts))
	}
	if _, ok := stmts[0].(*Run); !ok {
		t.Fatalf("stmt 0 is %T", stmts[0])
	}
	if _, ok := stmts[1].(*Persist); !ok {
		t.Fatalf("stmt 1 is %T", stmts[1])
	}
	if _, ok := stmts[2].(*Predict); !ok {
		t.Fatalf("stmt 2 is %T", stmts[2])
	}
}

func TestParseErrorsCarryPositions(t *testing.T) {
	cases := []string{
		"",                            // empty
		"run;",                        // missing everything
		"run classification;",         // missing source
		"run classification on;",      // missing path
		"run classification on a.txt", // missing semicolon
		"run classification on a.txt having bogus 1;",    // unknown constraint
		"run classification on a.txt having epsilon -1;", // bad epsilon
		"run classification on a.txt having time xyz;",   // bad duration
		"run classification on a.txt having max 1000;",   // max without iter
		"run classification on a.txt using algorithm;",   // missing value
		"run classification on a.txt using wibble 1;",    // unknown directive
		"persist on m.txt;",                              // missing model
		"predict on a.txt;",                              // missing with
		"x = persist Q on m.txt;",                        // assigned persist
		"run classification on a.txt:0;",                 // column < 1
		"run classification on a.txt:9-4;",               // inverted range
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseAdaptiveKnob(t *testing.T) {
	st, err := ParseOne("run classification on train.txt having epsilon 0.01, adaptive;")
	if err != nil {
		t.Fatal(err)
	}
	r := st.(*Run)
	if !r.Adaptive {
		t.Fatal("adaptive knob not parsed")
	}
	if r.Epsilon != 0.01 {
		t.Fatalf("epsilon = %g alongside adaptive", r.Epsilon)
	}
	st, err = ParseOne("run classification on train.txt;")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*Run).Adaptive {
		t.Fatal("adaptive defaulted on")
	}
}

func TestParseFastMathKnob(t *testing.T) {
	st, err := ParseOne("run classification on train.txt having epsilon 0.01, fastmath;")
	if err != nil {
		t.Fatal(err)
	}
	r := st.(*Run)
	if !r.FastMath {
		t.Fatal("fastmath knob not parsed")
	}
	if r.Epsilon != 0.01 {
		t.Fatalf("epsilon = %g alongside fastmath", r.Epsilon)
	}
	st, err = ParseOne("run classification on train.txt;")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*Run).FastMath {
		t.Fatal("fastmath defaulted on")
	}
}

func TestSyntaxErrorFormat(t *testing.T) {
	_, err := Parse("run classification on a.txt having bogus 1;")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Line != 1 || se.Col == 0 {
		t.Fatalf("position %d:%d not populated", se.Line, se.Col)
	}
	if !strings.Contains(err.Error(), "1:") {
		t.Fatalf("message lacks position: %q", err.Error())
	}
}

func TestRunStringRoundTrips(t *testing.T) {
	srcs := []string{
		"Q1 = run classification on train.txt;",
		"Q2 = run classification on in.txt:2, in.txt:4-20 having time 1h30m0s, epsilon 0.01, max iter 1000;",
		"Q3 = run classification on train.txt having epsilon 0.01, adaptive;",
		"Q4 = run classification on train.txt having epsilon 0.01, fastmath;",
		"run regression on d.csv using algorithm BGD, step 0.5;",
		"persist Q1 on m.txt;",
		"r = predict on t.txt with m.txt;",
	}
	for _, src := range srcs {
		st, err := ParseOne(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		var rendered string
		switch s := st.(type) {
		case *Run:
			rendered = s.String()
		case *Persist:
			rendered = s.String()
		case *Predict:
			rendered = s.String()
		}
		again, err := ParseOne(rendered)
		if err != nil {
			t.Fatalf("re-parse %q: %v", rendered, err)
		}
		var rendered2 string
		switch s := again.(type) {
		case *Run:
			rendered2 = s.String()
		case *Persist:
			rendered2 = s.String()
		case *Predict:
			rendered2 = s.String()
		}
		if rendered != rendered2 {
			t.Fatalf("render not stable: %q vs %q", rendered, rendered2)
		}
	}
}

func TestLexerClassification(t *testing.T) {
	toks, err := Lex("run 0.01 1e-4 1h30m 4-20 data/x.txt ( ) , ; = :")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokWord, TokNumber, TokNumber, TokDuration, TokRange, TokWord,
		TokLParen, TokRParen, TokComma, TokSemicolon, TokAssign, TokColon, TokEOF}
	if len(toks) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(toks), len(want), toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d (%q) = %v, want %v", i, toks[i].Text, toks[i].Kind, k)
		}
	}
}

func TestLexerRejectsGarbage(t *testing.T) {
	if _, err := Lex("run @ x"); err == nil {
		t.Fatal("'@' accepted")
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := Lex("# full line\nrun # trailing\n;")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 { // run, ;, EOF
		t.Fatalf("tokens = %v", toks)
	}
}

// TestStatementsCarryPositions pins the At() accessor the execution layer
// uses to point run-time failures back into the submitted script.
func TestStatementsCarryPositions(t *testing.T) {
	stmts, err := Parse(`run classification on a.txt;
  Q2 = run regression on b.txt;
persist Q2 on out.model;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("parsed %d statements", len(stmts))
	}
	want := []Position{{Line: 1, Col: 1}, {Line: 2, Col: 3}, {Line: 3, Col: 1}}
	for i, st := range stmts {
		if st.At() != want[i] {
			t.Fatalf("statement %d at %v, want %v", i, st.At(), want[i])
		}
	}
	if want[1].String() != "2:3" {
		t.Fatalf("Position.String = %q", want[1].String())
	}
}

// FuzzParseScript feeds the parser arbitrary text: it must never panic, and
// every error it returns is a *SyntaxError positioned at line 1 or later —
// the serving layer maps exactly that type to a 400 pointing into the script.
func FuzzParseScript(f *testing.F) {
	for _, s := range []string{
		"Q2 = run classification on in.txt:2, in.txt:4-20 having time 1h30m0s, epsilon 0.01, max iter 1000;",
		"Q3 = run classification on input_data.txt\n\tusing algorithm SGD, convergence cnvg(), step 1, sampler my_sampler();",
		"run classification on train.txt having epsilon 0.01, adaptive, fastmath;",
		"persist Q1 on m.txt;\nr = predict on t.txt with m.txt;",
		"# comment only\n", "run classification on a.txt:9-4;", "run x on \"unterminated",
		"run x on a.txt having epsilon 1e999999;", "run x on a.txt:99999999999999999999;", "\x00\xff;",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Parse(src)
		if err == nil {
			return
		}
		if se, ok := err.(*SyntaxError); !ok || se.Line < 1 {
			t.Fatalf("Parse(%q) = %v (%T), want a *SyntaxError at line >= 1", src, err, err)
		}
	})
}
