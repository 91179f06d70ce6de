package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"mxq"
	"mxq/internal/serialize"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
)

// battery is the scan workload's query set: the descendant-heavy XMark
// shapes of the query pipeline benchmark (pipeline_bench_test.go) plus
// the //-rooted read mix of cmd/mxqload. Each query is its own class, so
// a change that speeds one shape shows in that class's layer metrics.
var battery = []struct{ class, q string }{
	{"keyword", `//keyword`},
	{"item-names", `/site/regions//item/name/text()`},
	{"nested-keyword", `//listitem//keyword`},
	{"parlist-text", `//parlist//listitem//text()`},
	{"bidder-first", `/site/open_auctions/open_auction/bidder[1]/increase/text()`},
	{"long-child-chain", `/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()`},
	{"pred-filter", `//item[description//keyword]/name/text()`},
	{"count-person", `count(//person)`},
	{"bidder-increase", `//open_auction/bidder/increase/text()`},
	{"item-payment-id", `//item[payment]/@id`},
	{"person-watches", `//person[watches]/name/text()`},
	{"person-by-id", `//person[@id = $id]/name/text()`},
}

// materialize converts an evaluated value into result items exactly as
// the engine's Prepared.Run does, over any document view — so results
// from the paged store and from the read-only reference store compare
// item for item.
func materialize(v xenc.DocView, val xpath.Value) (mxq.Result, error) {
	switch x := val.(type) {
	case xpath.NodeSet:
		res := make(mxq.Result, 0, len(x))
		for _, n := range x {
			it, err := materializeNode(v, n)
			if err != nil {
				return nil, err
			}
			res = append(res, it)
		}
		return res, nil
	case xpath.Number:
		return mxq.Result{{Kind: "number", Value: xpath.FormatNumber(float64(x))}}, nil
	case xpath.String:
		return mxq.Result{{Kind: "string", Value: string(x)}}, nil
	case xpath.Boolean:
		return mxq.Result{{Kind: "boolean", Value: fmt.Sprint(bool(x))}}, nil
	}
	return nil, fmt.Errorf("unexpected result type %T", val)
}

func materializeNode(v xenc.DocView, n xpath.Node) (mxq.Item, error) {
	if n.Pre == xpath.DocNodePre {
		return mxq.Item{Kind: "document", Value: xpath.StringValue(v, n)}, nil
	}
	if n.Attr != xpath.NoAttr {
		return mxq.Item{Kind: "attribute", Value: xpath.StringValue(v, n)}, nil
	}
	it := mxq.Item{Value: xpath.StringValue(v, n)}
	switch v.Kind(n.Pre) {
	case xenc.KindElem:
		it.Kind = "element"
		s, err := serialize.String(v, n.Pre, serialize.Options{})
		if err != nil {
			return it, err
		}
		it.XML = s
	case xenc.KindText:
		it.Kind = "text"
	case xenc.KindComment:
		it.Kind = "comment"
	case xenc.KindPI:
		it.Kind = "processing-instruction"
	}
	return it, nil
}

// fingerprint hashes a result's items in order.
func fingerprint(res mxq.Result) string {
	h := sha256.New()
	for _, it := range res {
		fmt.Fprintf(h, "%d:%s\x00%d:%s\x00%d:%s\x00", len(it.Kind), it.Kind, len(it.Value), it.Value, len(it.XML), it.XML)
	}
	return fmt.Sprintf("%d/%s", len(res), hex.EncodeToString(h.Sum(nil)))
}

// countingView counts tuple inspections: every pre-addressed accessor
// call an evaluation makes. One evaluation runs on one goroutine, so the
// counter is a plain integer.
type countingView struct {
	xenc.DocView
	n int64
}

func (c *countingView) Size(p xenc.Pre) xenc.Size   { c.n++; return c.DocView.Size(p) }
func (c *countingView) Level(p xenc.Pre) xenc.Level { c.n++; return c.DocView.Level(p) }
func (c *countingView) Kind(p xenc.Pre) xenc.Kind   { c.n++; return c.DocView.Kind(p) }
func (c *countingView) Name(p xenc.Pre) int32       { c.n++; return c.DocView.Name(p) }
func (c *countingView) Value(p xenc.Pre) string     { c.n++; return c.DocView.Value(p) }
func (c *countingView) Attrs(p xenc.Pre) []xenc.Attr {
	c.n++
	return c.DocView.Attrs(p)
}
func (c *countingView) AttrValue(p xenc.Pre, name int32) (string, bool) {
	c.n++
	return c.DocView.AttrValue(p, name)
}
