package xpath

import (
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/naive"
	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/xenc"
)

// FuzzXPathParse feeds arbitrary strings to the XPath compiler. Parse
// must either return an error or an expression whose Source round-trips
// and which survives evaluation against a tiny document — it must never
// panic, loop, or index out of range, whatever the lexer and parser are
// handed. The seed corpus covers the grammar: all axes, node tests,
// predicates, functions, operators, literals and variables.
func FuzzXPathParse(f *testing.F) {
	seeds := []string{
		// Paths and axes.
		`/`, `//person`, `/site/people/person/name/text()`,
		`//person/descendant-or-self::person`, `//d/ancestor::*[1]`,
		`//f/preceding-sibling::*[1]`, `//item[1]/preceding::person`,
		`//person[1]/following::item`, `//watch/ancestor-or-self::*`,
		`//increase/parent::bidder`, `./name/..`, `.//watch`,
		`//@id`, `//person/@id`, `child::*/attribute::id`,
		// Node tests.
		`//node()`, `//text()`, `//comment()`,
		`//processing-instruction()`, `//processing-instruction("tgt")`,
		// Predicates and positions.
		`//person[2]`, `//person[position() = 2]`, `//person[last()]`,
		`//person[@id="person0"]`, `//person[not(watches)]`,
		`//open_auction[bidder/increase > 10]`, `(//a)[1]/text()`,
		`//person/name[../income]`, `(1)[2]`, `("x")[1]/b`,
		// Operators.
		`1 + 2 * 3 - 4 div 5 mod 6`, `-1`, `- -1`, `1 < 2 or 3 >= 4 and 5 != 6`,
		`//name | //income`, `//a | 3`, `//person/@id = "person2"`,
		`//person/name = //item/name`, `"a" != "a"`,
		// Functions.
		`count(//person)`, `sum(//income)`, `floor(1.5)`, `ceiling(1.5)`,
		`round(2.5)`, `number("7")`, `string(123)`, `boolean(0)`,
		`concat("a", "-", "b")`, `contains(name, "gold")`,
		`starts-with(name(), "open_a")`, `substring("hello", 2, 3)`,
		`substring-before("a-b", "-")`, `substring-after("a-b", "-")`,
		`normalize-space("  x   y ")`, `string-length()`, `translate("abc","ab","x")`,
		`local-name()`, `true()`, `false()`, `not(true())`, `position()`,
		// Variables, literals, whitespace.
		`$who`, `//person[@id = $who]/name`, `'single'`, `"double"`,
		`  //a  [  1  ]  `, `3.14159`, `.5`, `5.`,
		// Malformed shapes that must error cleanly.
		`//person]`, `!`, `, `, `(`, `)`, `[`, `]`, `@`, `::`, `//`, `///`,
		`"unterminated`, `'unterminated`, `1 +`, `foo(`, `$`, `//a[`,
		`processing-instruction(`, `a//`, `..a`, `. .`, `1e`, `0x10`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	doc := buildFuzzDoc(f)
	f.Fuzz(func(t *testing.T, src string) {
		// Reject pathological inputs that are legal but exponentially
		// nested; the parser is recursive descent, and Go's fuzzer finds
		// multi-kilobyte bracket towers that only test stack depth.
		if len(src) > 4096 {
			t.Skip()
		}
		expr, err := Parse(src)
		if err != nil {
			return
		}
		if got := expr.Source(); got != src {
			t.Fatalf("Source() = %q, want %q", got, src)
		}
		// A successfully compiled expression must also evaluate without
		// panicking (errors are fine: unbound variables etc.).
		vars := map[string]Value{"who": String("w"), "x": Number(1)}
		_, _ = expr.EvalVars(doc, vars)
	})
}

// FuzzXPathEval is the evaluation-side differential fuzzer: every query
// that parses is evaluated three ways — through the compiled
// sequence-at-a-time pipeline on the paged store (free tuples
// interleaved; once over whole page runs and once over 1-tuple runs,
// which must agree exactly), through the node-at-a-time interpreter on the same
// store, and through the interpreter on the naive dense oracle — and all
// three must agree on error-ness and, modulo physical pre ranks, on the
// result. This crosses both dimensions at once: plan vs. interpreter
// (the compiler's predicate classification and // fusion) and paged vs.
// dense storage (free-run skipping in the staircase operators).
func FuzzXPathEval(f *testing.F) {
	seeds := []string{
		// Shapes the compiler rewrites: descendant fusion, sequence
		// predicates, fused positional counters.
		`//kw`, `//item//kw`, `//listitem//kw/text()`, `/site//name`,
		`//person[income]/name/text()`, `//item[desc//kw]/@id`,
		`//bidder[1]/increase/text()`, `//person[position() = 2]`,
		`//watch[2]`, `//item[1]//kw`, `(//kw)[2]`, `//desc/kw[last()]`,
		// Shapes that stay per-node: reverse-axis numbering.
		`//kw/ancestor::*[1]`, `//kw/ancestor::node()[last()]`,
		`//bidder/preceding-sibling::*[1]`, `//f/preceding::*[2]`,
		// Attribute axis, unions, functions, operators, variables.
		`//@id`, `//person/@id[1]`, `//name | //kw`, `count(//kw)`,
		`sum(//income)`, `//person[@id = $who]/name`,
		`//person[name = "cy"]`, `string(//item[1])`, `//node()`,
		`//text()`, `//comment()`, `//processing-instruction()`,
		`//person/descendant-or-self::*`, `//item/following::kw`,
		`//watch/..`, `.//kw`, `1 + count(//item//kw) * 2`,
		// Filter expressions: in-place sequence filters over the base.
		`(//person)[income]/name/text()`, `(//item//kw)[2]/text()`,
		`(//person)[income][2]/@id`, `(//name | //kw)[contains(., "o")]`,
		`(//item)[desc//kw]`, `(//person)[$x]`, `(//person)[$who]`,
		// Untypable step predicates: dyn sequence steps whose numeric
		// fallback reruns the step per-node ($x is a number).
		`//watch[$x]`, `//person[$x]/@id`, `//person[$who]/name`,
		`//bidder[$x]/increase/text()`, `//person[watches/watch[$x]]`,
		// Document-node scans over the paged plane: whole-plane
		// descendant scans, the root child, name tests the document never
		// interned, and the document node mixed into a longer context.
		`/descendant::kw`, `/descendant-or-self::node()`, `/descendant-or-self::kw`,
		`//*`, `//nope`, `//@*`, `//item/@nope`, `/*`, `/node()`, `/child::site/e`,
		`/descendant::kw[2]`, `(/ | //desc)//kw`, `(/ | //people)/*`,
		`//processing-instruction("tgt")`, `//kw/preceding::name`,
		`//kw/following::*`, `//listitem/following-sibling::kw`,
		`//kw/preceding-sibling::*`, `//desc/descendant-or-self::node()/kw`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	tr, err := shred.Parse(strings.NewReader(fuzzEvalDoc), shred.Options{})
	if err != nil {
		f.Fatal(err)
	}
	oracle, err := naive.Build(tr)
	if err != nil {
		f.Fatal(err)
	}
	paged, err := core.Build(tr, core.Options{PageSize: 8, FillFactor: 0.7})
	if err != nil {
		f.Fatal(err)
	}
	vars := map[string]Value{"who": String("p1"), "x": Number(2)}

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			t.Skip()
		}
		expr, err := Parse(src)
		if err != nil {
			return
		}
		planned, errPlan := fuzzFingerprint(paged, expr, vars)
		unit, errUnit := fuzzFingerprint(unitRuns{paged}, expr, vars)
		if (errPlan == nil) != (errUnit == nil) || unit != planned {
			t.Fatalf("%q: 1-tuple runs diverged from page runs\npages: %s %v\nunits: %s %v",
				src, planned, errPlan, unit, errUnit)
		}
		prev := SetPlanEnabled(false)
		perNode, errPer := fuzzFingerprint(paged, expr, vars)
		dense, errNaive := fuzzFingerprint(oracle, expr, vars)
		SetPlanEnabled(prev)
		if (errPlan == nil) != (errPer == nil) || (errPlan == nil) != (errNaive == nil) {
			t.Fatalf("%q: error disagreement: plan=%v per-node=%v naive=%v",
				src, errPlan, errPer, errNaive)
		}
		if errPlan != nil {
			return
		}
		if planned != perNode {
			t.Fatalf("%q: plan diverged from per-node\nplan:     %s\nper-node: %s",
				src, planned, perNode)
		}
		if planned != dense {
			t.Fatalf("%q: paged diverged from naive oracle\npaged: %s\nnaive: %s",
				src, planned, dense)
		}
	})
}

// unitRuns forwards a view but hands out 1-tuple page runs, the shortest
// the run contract allows.
type unitRuns struct{ xenc.DocView }

func (u unitRuns) PageRun(p xenc.Pre) xenc.Run {
	r := u.DocView.PageRun(p)
	return xenc.Run{Size: r.Size[:1], Level: r.Level[:1], Kind: r.Kind[:1], Name: r.Name[:1]}
}

// fuzzEvalDoc nests elements deeply (overlapping descendant regions, the
// pruning's home turf) and carries every node kind.
const fuzzEvalDoc = `<site><people>` +
	`<person id="p0"><name>ada</name><income>42</income>` +
	`<watches><watch/><watch/><watch/></watches></person>` +
	`<person id="p1"><name>bob gold</name></person>` +
	`<person id="p2"><name>cy</name><income>7</income></person></people>` +
	`<regions><europe><item id="i0"><name>clock</name>` +
	`<desc><parlist><listitem><parlist><listitem><kw>deep</kw></listitem>` +
	`</parlist><kw>mid</kw></listitem></parlist><kw>top</kw></desc></item>` +
	`<item id="i1"><name>vase</name><desc><kw>only</kw></desc></item></europe>` +
	`<asia><item id="i2"><name>gong</name></item></asia></regions>` +
	`<open_auctions><open_auction><bidder><increase>10</increase></bidder>` +
	`<bidder><increase>25</increase></bidder></open_auction>` +
	`<open_auction><bidder><increase>5</increase></bidder></open_auction>` +
	`</open_auctions><e/><f/><!--c--><?tgt data?></site>`

// fuzzFingerprint renders a result in a form independent of physical pre
// ranks, so the paged store (with free tuples) and the dense oracle
// compare equal when they agree logically (the rendering is resultKey
// from plan_test.go).
func fuzzFingerprint(v xenc.DocView, e *Expr, vars map[string]Value) (string, error) {
	val, err := e.EvalVars(v, vars)
	if err != nil {
		return "", err
	}
	return resultKey(v, val), nil
}

func buildFuzzDoc(f *testing.F) xenc.DocView {
	f.Helper()
	tr, err := shred.Parse(strings.NewReader(
		`<site><people><person id="person0"><name>a b</name><income>42</income></person><person id="person1"><name>gold</name></person></people><open_auctions><open_auction><bidder><increase>20</increase></bidder></open_auction></open_auctions><!--c--><?tgt data?></site>`),
		shred.Options{})
	if err != nil {
		f.Fatal(err)
	}
	v, err := rostore.Build(tr)
	if err != nil {
		f.Fatal(err)
	}
	return v
}
