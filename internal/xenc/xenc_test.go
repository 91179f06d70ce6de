package xenc

import "testing"

// fakeView is a minimal DocView over explicit size/level columns, used to
// unit-test the free-run helpers without a concrete store.
type fakeView struct {
	size  []int32
	level []Level
}

func (f *fakeView) Len() Pre          { return int32(len(f.size)) }
func (f *fakeView) LiveNodes() int    { return 0 }
func (f *fakeView) Size(p Pre) Size   { return f.size[p] }
func (f *fakeView) Level(p Pre) Level { return f.level[p] }
func (f *fakeView) Kind(Pre) Kind     { return KindElem }
func (f *fakeView) Name(Pre) int32    { return NoName }
func (f *fakeView) PageRun(p Pre) Run {
	return Run{Size: f.size[p : p+1], Level: f.level[p : p+1], Kind: []uint8{uint8(KindElem)}, Name: []int32{NoName}}
}
func (f *fakeView) Value(Pre) string                    { return "" }
func (f *fakeView) NodeOf(p Pre) NodeID                 { return p }
func (f *fakeView) PreOf(n NodeID) Pre                  { return n }
func (f *fakeView) Attrs(Pre) []Attr                    { return nil }
func (f *fakeView) AttrValue(Pre, int32) (string, bool) { return "", false }
func (f *fakeView) Names() *QNamePool                   { return nil }
func (f *fakeView) Root() Pre                           { return SkipFree(f, 0) }

func TestSkipFree(t *testing.T) {
	// used, free-run(2), used, free-run(1), used
	v := &fakeView{
		size:  []int32{0, 1, 0, 0, 0, 0},
		level: []Level{0, LevelUnused, LevelUnused, 1, LevelUnused, 1},
	}
	cases := []struct{ in, want Pre }{
		{0, 0}, {1, 3}, {2, 3}, {3, 3}, {4, 5}, {5, 5}, {6, 6},
	}
	for _, c := range cases {
		if got := SkipFree(v, c.in); got != c.want {
			t.Errorf("SkipFree(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSkipFreeAllFree(t *testing.T) {
	v := &fakeView{
		size:  []int32{3, 2, 1, 0},
		level: []Level{LevelUnused, LevelUnused, LevelUnused, LevelUnused},
	}
	if got := SkipFree(v, 0); got != 4 {
		t.Fatalf("SkipFree over trailing run = %d, want Len()=4", got)
	}
}

func TestPrevUsed(t *testing.T) {
	v := &fakeView{
		size:  []int32{0, 1, 0, 0},
		level: []Level{0, LevelUnused, LevelUnused, 1},
	}
	if got := PrevUsed(v, 3); got != 0 {
		t.Fatalf("PrevUsed(3) = %d, want 0", got)
	}
	if got := PrevUsed(v, 0); got != -1 {
		t.Fatalf("PrevUsed(0) = %d, want -1", got)
	}
}

func TestIsUsed(t *testing.T) {
	v := &fakeView{size: []int32{0, 0}, level: []Level{0, LevelUnused}}
	if !IsUsed(v, 0) || IsUsed(v, 1) || IsUsed(v, -1) || IsUsed(v, 2) {
		t.Fatal("IsUsed misclassifies")
	}
}

func TestPostOf(t *testing.T) {
	// Single root with one child: root pre 0 size 1 level 0 -> post 1;
	// child pre 1 size 0 level 1 -> post 0.
	v := &fakeView{size: []int32{1, 0}, level: []Level{0, 1}}
	if PostOf(v, 0) != 1 || PostOf(v, 1) != 0 {
		t.Fatalf("post = %d,%d want 1,0", PostOf(v, 0), PostOf(v, 1))
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindElem: "element", KindText: "text", KindComment: "comment",
		KindPI: "processing-instruction", KindAttr: "attribute",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
		if !k.Valid() {
			t.Errorf("Kind(%d) not valid", k)
		}
	}
	if Kind(200).Valid() {
		t.Error("Kind(200) reported valid")
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind has empty String()")
	}
}

func TestQNamePool(t *testing.T) {
	q := NewQNamePool()
	a := q.Intern("item")
	b := q.Intern("person")
	if a == b || q.Intern("item") != a {
		t.Fatal("interning broken")
	}
	if q.Name(a) != "item" || q.Name(NoName) != "" {
		t.Fatal("Name lookup broken")
	}
	if id, ok := q.Lookup("person"); !ok || id != b {
		t.Fatal("Lookup broken")
	}
	if _, ok := q.Lookup("absent"); ok {
		t.Fatal("Lookup of absent name succeeded")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	if got := q.NamesList(); len(got) != 2 || got[0] != "item" || got[1] != "person" {
		t.Fatalf("NamesList = %v", got)
	}
}
