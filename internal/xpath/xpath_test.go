package xpath

import (
	"math"
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/xenc"
)

const sampleDoc = `<site>
  <people>
    <person id="person0"><name>Kasidit Treweek</name><income>40000</income></person>
    <person id="person1"><name>Oleg Blanc</name><income>120000</income>
      <watches><watch open_auction="oa1"/></watches></person>
    <person id="person2"><name>Aditya Brown</name></person>
  </people>
  <open_auctions>
    <open_auction id="oa0">
      <bidder><increase>3.00</increase></bidder>
      <bidder><increase>7.50</increase></bidder>
      <initial>15.50</initial>
      <current>22.00</current>
    </open_auction>
    <open_auction id="oa1">
      <bidder><increase>12.00</increase></bidder>
      <initial>20.00</initial>
      <current>32.00</current>
    </open_auction>
  </open_auctions>
  <regions>
    <europe><item id="item0"><name>gold ring</name></item></europe>
    <namerica><item id="item1"><name>silver spoon</name></item></namerica>
  </regions>
</site>`

// views builds the sample on both schemas so every test runs on each.
func views(t *testing.T) map[string]xenc.DocView {
	t.Helper()
	tr, err := shred.Parse(strings.NewReader(sampleDoc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := rostore.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	up, err := core.Build(tr, core.Options{PageSize: 16, FillFactor: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]xenc.DocView{"ro": ro, "up": up}
}

func evalString(t *testing.T, v xenc.DocView, q string) string {
	t.Helper()
	e, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	val, err := e.Eval(v)
	if err != nil {
		t.Fatalf("eval %q: %v", q, err)
	}
	return StringOf(v, val)
}

func evalCount(t *testing.T, v xenc.DocView, q string) int {
	t.Helper()
	e, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	ns, err := e.Select(v)
	if err != nil {
		t.Fatalf("select %q: %v", q, err)
	}
	return len(ns)
}

func TestPathsAndPredicates(t *testing.T) {
	cases := []struct {
		q    string
		want int
	}{
		{`/site`, 1},
		{`/nosuch`, 0},
		{`/site/people/person`, 3},
		{`/site/people/person[@id="person0"]`, 1},
		{`/site/people/person[@id="nobody"]`, 0},
		{`//person`, 3},
		{`//person/name`, 3},
		{`//watch`, 1},
		{`//person[watches]`, 1},
		{`//person[not(watches)]`, 2},
		{`/site/open_auctions/open_auction/bidder`, 3},
		{`/site/open_auctions/open_auction/bidder[1]`, 2},
		{`/site/open_auctions/open_auction/bidder[last()]`, 2},
		{`/site/open_auctions/open_auction[count(bidder) > 1]`, 1},
		{`//open_auction[bidder/increase > 10]`, 1},
		{`//item[contains(name, "gold")]`, 1},
		{`//*[starts-with(name(), "open_a")]`, 3},
		{`/site/regions/*/item`, 2},
		{`//person[position() = 2]`, 1},
		{`//person[2]`, 1},
		{`//text()`, 14},
		{`//node()`, 46},
		{`//person/@id`, 3},
		{`//@id`, 7},
		{`/site/people/person[income > 50000]`, 1},
		{`/site/people/person[income]`, 2},
		{`//person/name[../income]`, 2},
		{`//name | //income`, 7},
		{`//person[.//watch]`, 1},
		{`/site/people/person[1]/following-sibling::person`, 2},
		{`/site/people/person[3]/preceding-sibling::person`, 2},
		{`//watch/ancestor::person`, 1},
		{`//watch/ancestor-or-self::*`, 5},
		{`//increase/parent::bidder`, 3},
		{`//person[1]/following::item`, 2},
		{`//item[1]/preceding::person`, 3},
		{`//person/self::person`, 3},
		{`//person/descendant-or-self::person`, 3},
		{`/site/people/person[@id="person1"]/watches/watch`, 1},
	}
	for name, v := range views(t) {
		for _, c := range cases {
			if got := evalCount(t, v, c.q); got != c.want {
				t.Errorf("[%s] count(%s) = %d, want %d", name, c.q, got, c.want)
			}
		}
	}
}

func TestStringResults(t *testing.T) {
	cases := []struct {
		q, want string
	}{
		{`string(/site/people/person[@id="person0"]/name)`, "Kasidit Treweek"},
		{`string(//person[2]/name/text())`, "Oleg Blanc"},
		{`string(//open_auction[@id="oa1"]/initial)`, "20.00"},
		{`string(//person[1]/@id)`, "person0"},
		{`concat("a", "-", "b")`, "a-b"},
		{`normalize-space("  x   y ")`, "x y"},
		{`substring("hello", 2, 3)`, "ell"},
		{`substring-before("a=b", "=")`, "a"},
		{`substring-after("a=b", "=")`, "b"},
		{`string(count(//person))`, "3"},
		{`string(1 div 2)`, "0.5"},
		{`string(7 mod 3)`, "1"},
		{`string(2 + 3 * 4)`, "14"},
		{`string((2 + 3) * 4)`, "20"},
		{`string(-5 + 2)`, "-3"},
		{`string(sum(//income))`, "160000"},
		{`string(floor(2.7))`, "2"},
		{`string(ceiling(2.2))`, "3"},
		{`string(round(2.5))`, "3"},
		{`string(true())`, "true"},
		{`string(10000000)`, "10000000"},
		{`name(//person[1])`, "person"},
		{`local-name(//@id)`, "id"},
		{`string(string-length("abcd"))`, "4"},
	}
	for name, v := range views(t) {
		for _, c := range cases {
			if got := evalString(t, v, c.q); got != c.want {
				t.Errorf("[%s] %s = %q, want %q", name, c.q, got, c.want)
			}
		}
	}
}

func TestBooleansAndComparisons(t *testing.T) {
	cases := []struct {
		q    string
		want bool
	}{
		{`1 < 2`, true},
		{`2 <= 2`, true},
		{`3 > 4`, false},
		{`"a" = "a"`, true},
		{`"a" != "a"`, false},
		{`1 = "1"`, true},
		{`true() and false()`, false},
		{`true() or false()`, true},
		{`not(false())`, true},
		{`boolean(//person)`, true},
		{`boolean(//nosuch)`, false},
		{`//person/@id = "person2"`, true}, // existential
		{`//person/income > 100000`, true}, // existential numeric
		{`//person/income < 1`, false},
		{`//person/name = //item/name`, false}, // nodeset vs nodeset
		{`count(//bidder) = 3`, true},
	}
	for name, v := range views(t) {
		for _, c := range cases {
			e, err := Parse(c.q)
			if err != nil {
				t.Fatalf("parse %q: %v", c.q, err)
			}
			val, err := e.Eval(v)
			if err != nil {
				t.Fatalf("eval %q: %v", c.q, err)
			}
			if got := BoolOf(val); got != c.want {
				t.Errorf("[%s] %s = %v, want %v", name, c.q, got, c.want)
			}
		}
	}
}

// TestNodeSetBooleanComparison pins XPath 1.0 §3.4: a node-set compared
// with a boolean compares boolean(node-set), not each node's
// string-value. The expected values come from the spec, not from another
// evaluator (the oracle stores share this one).
func TestNodeSetBooleanComparison(t *testing.T) {
	tr, err := shred.Parse(strings.NewReader(`<r><p><i></i></p><p><i>x</i></p><p/></r>`), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := rostore.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	up, err := core.Build(tr, core.Options{PageSize: 8, FillFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q    string
		want string
	}{
		{`//p/i = false()`, "false"}, // the node-set is non-empty
		{`//p/i = true()`, "true"},
		{`//p/i != true()`, "false"},
		{`false() = //p/i`, "false"},
		{`//nothing = false()`, "true"}, // empty node-set is false
		{`//nothing != true()`, "true"},
		{`true() = //nothing`, "false"},
		{`//p/i < true()`, "false"}, // 1 < 1 after number(boolean())
		{`//nothing < true()`, "true"},
		{`count(//p[i = true()])`, "2"},
		{`count(//p[i = false()])`, "1"},
		{`count(//p[$t = i])`, "2"},
		{`count(//p[i != $t])`, "1"},
	}
	vars := map[string]Value{"t": Boolean(true)}
	for name, v := range map[string]xenc.DocView{"ro": ro, "up": up} {
		for _, plan := range []bool{true, false} {
			prev := SetPlanEnabled(plan)
			for _, c := range cases {
				val, err := MustParse(c.q).EvalVars(v, vars)
				if err != nil {
					t.Fatalf("%s: %v", c.q, err)
				}
				if got := StringOf(v, val); got != c.want {
					t.Errorf("[%s plan=%v] %s = %s, want %s", name, plan, c.q, got, c.want)
				}
			}
			SetPlanEnabled(prev)
		}
	}
}

func TestVariables(t *testing.T) {
	for name, v := range views(t) {
		e := MustParse(`//person[@id = $who]/name`)
		ns, err := e.SelectVars(v, map[string]Value{"who": String("person1")})
		if err != nil {
			t.Fatal(err)
		}
		if len(ns) != 1 || StringValue(v, ns[0]) != "Oleg Blanc" {
			t.Errorf("[%s] variable join failed: %v", name, ns)
		}
		if _, err := e.Select(v); err == nil {
			t.Errorf("[%s] unbound variable did not error", name)
		}
	}
}

func TestRelativeEvaluation(t *testing.T) {
	for name, v := range views(t) {
		persons, err := MustParse(`//person`).Select(v)
		if err != nil {
			t.Fatal(err)
		}
		withIncome := 0
		for _, p := range persons {
			val, err := MustParse(`income`).EvalAt(v, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if BoolOf(val) {
				withIncome++
			}
		}
		if withIncome != 2 {
			t.Errorf("[%s] relative income eval = %d, want 2", name, withIncome)
		}
		// ".." and "." steps.
		n, err := MustParse(`./name/..`).SelectAt(v, persons[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(n) != 1 || n[0] != persons[0] {
			t.Errorf("[%s] ./name/.. = %v, want self", name, n)
		}
	}
}

func TestDocumentNodeSemantics(t *testing.T) {
	for name, v := range views(t) {
		// Parent of the root element is the document node.
		ns, err := MustParse(`/site/..`).Select(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(ns) != 1 || ns[0] != DocNode() {
			t.Errorf("[%s] /site/.. = %v, want document node", name, ns)
		}
		// The document node's string value is the whole text.
		if got := evalString(t, v, `string(/)`); !strings.Contains(got, "Kasidit Treweek") {
			t.Errorf("[%s] string(/) missing text: %q", name, got)
		}
	}
}

func TestNumberEdgeCases(t *testing.T) {
	for _, v := range views(t) {
		e := MustParse(`number("zzz")`)
		val, err := e.Eval(v)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(float64(val.(Number))) {
			t.Errorf("number(zzz) = %v, want NaN", val)
		}
		if got := evalString(t, v, `string(1 div 0)`); got != "Infinity" {
			t.Errorf("1 div 0 = %q", got)
		}
		if got := evalString(t, v, `string(number("zzz"))`); got != "NaN" {
			t.Errorf("string(NaN) = %q", got)
		}
		break
	}
}

func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		``, `/site[`, `//person[@id=]`, `foo(`, `1 +`, `$`, `"unterminated`,
		`/site/unknown::x`, `!`, `//person]`, `processing-instruction(3)`,
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	for _, v := range views(t) {
		for _, q := range []string{
			`count(1)`, `sum("x")`, `(1)[2]`, `1/x`, `nosuchfn()`,
			`count()`, `contains("a")`,
		} {
			e, err := Parse(q)
			if err != nil {
				continue // parse-time rejection is fine too
			}
			if _, err := e.Eval(v); err == nil {
				t.Errorf("Eval(%q) succeeded, want error", q)
			}
		}
		break
	}
}

func TestExprString(t *testing.T) {
	e := MustParse(`/site//person[@id="p"][2]/name`)
	s := e.String()
	for _, frag := range []string{"descendant-or-self", "child::person", "attribute::id", "child::name"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
	if e.Source() == "" {
		t.Error("Source() empty")
	}
}

func TestKindTests(t *testing.T) {
	doc := `<r><p>text<!--c--><?tgt body?></p></r>`
	tr, err := shred.Parse(strings.NewReader(doc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := rostore.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := evalCount(t, v, `//comment()`); got != 1 {
		t.Errorf("//comment() = %d", got)
	}
	if got := evalCount(t, v, `//processing-instruction()`); got != 1 {
		t.Errorf("//processing-instruction() = %d", got)
	}
	if got := evalCount(t, v, `//processing-instruction("tgt")`); got != 1 {
		t.Errorf("//processing-instruction('tgt') = %d", got)
	}
	if got := evalCount(t, v, `//processing-instruction("other")`); got != 0 {
		t.Errorf("//processing-instruction('other') = %d", got)
	}
	if got := evalString(t, v, `string(//p/text())`); got != "text" {
		t.Errorf("//p/text() = %q", got)
	}
}

// The updatable store must keep answering identically after updates that
// shift tuples and splice pages.
func TestQueriesAfterUpdates(t *testing.T) {
	tr, err := shred.Parse(strings.NewReader(sampleDoc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	up, err := core.Build(tr, core.Options{PageSize: 8, FillFactor: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	people, err := MustParse(`/site/people`).Select(up)
	if err != nil {
		t.Fatal(err)
	}
	frag, err := shred.ParseFragment(
		`<person id="person3"><name>New Person</name><income>99999</income></person>`,
		shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := up.AppendChild(people[0].Pre, frag); err != nil {
		t.Fatal(err)
	}
	if got := evalCount(t, up, `//person`); got != 4 {
		t.Fatalf("persons after insert = %d, want 4", got)
	}
	if got := evalString(t, up, `string(//person[@id="person3"]/name)`); got != "New Person" {
		t.Fatalf("new person name = %q", got)
	}
	if got := evalCount(t, up, `/site/people/person[income > 50000]`); got != 2 {
		t.Fatalf("rich persons = %d, want 2", got)
	}
	// Delete one and re-check.
	target, err := MustParse(`//person[@id="person0"]`).Select(up)
	if err != nil {
		t.Fatal(err)
	}
	if err := up.Delete(target[0].Pre); err != nil {
		t.Fatal(err)
	}
	if got := evalCount(t, up, `//person`); got != 3 {
		t.Fatalf("persons after delete = %d, want 3", got)
	}
	if got := evalCount(t, up, `//person[@id="person0"]`); got != 0 {
		t.Fatalf("deleted person still found")
	}
}
