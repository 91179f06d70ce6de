package xpath_test

import (
	"bytes"
	"testing"

	"mxq/internal/core"
	"mxq/internal/shred"
	"mxq/internal/xmark"
	"mxq/internal/xpath"
)

// TestPredicateAllocsFlatInCandidates gates the set-at-a-time predicate
// by allocation count, which stays stable where wall-clock bounds do
// not: the served read's attribute predicate must allocate a bounded
// amount per evaluation, not an amount per candidate person. Doubling
// the document (and the person count) may only add the few allocations
// of growing result slices.
func TestPredicateAllocsFlatInCandidates(t *testing.T) {
	e := xpath.MustParse(`/site/people/person[@id = $id]/name/text()`)
	vars := map[string]xpath.Value{"id": xpath.String("person7")}
	allocs := func(sf float64) float64 {
		var buf bytes.Buffer
		if _, err := xmark.NewGenerator(sf, 42).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		tr, err := shred.Parse(&buf, shred.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.Build(tr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ns, err := e.SelectVars(st, vars)
		if err != nil || len(ns) != 1 {
			t.Fatalf("SF %g: %d results, err %v; want 1", sf, len(ns), err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.SelectVars(st, vars); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(0.01), allocs(0.02)
	t.Logf("allocs per evaluation: SF 0.01 %.0f, SF 0.02 %.0f (%d vs %d persons)",
		small, large, xmark.CountsFor(0.01).Persons, xmark.CountsFor(0.02).Persons)
	const slack = 4
	if large-small > slack {
		t.Errorf("allocations grow with the candidates: SF 0.01 %.0f, SF 0.02 %.0f (bound +%d)", small, large, slack)
	}
}
