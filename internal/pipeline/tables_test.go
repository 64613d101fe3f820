package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/glushkov"
	"smp/internal/paths"
	"smp/internal/xmlgen"
)

// TestReplayTablesAgree checks the dense replay tables against the compiled
// automata they are derived from, for each of the 23 paper queries alone
// and for the merged K=18 XMark and K=5 MEDLINE engines: every state ×
// union keyword entry is the table's successor when the keyword's token is
// in the state's vocabulary and -1 otherwise, closeOf pairs every opening
// keyword with its glushkov.Closing keyword, and the precomputed tag bytes
// spell the plan's tag strings.
func TestReplayTablesAgree(t *testing.T) {
	for _, ds := range []struct {
		name    string
		dtd     string
		queries []xmlgen.Query
		k       int
	}{
		{"XMark", xmlgen.XMarkDTD(), xmlgen.XMarkQueries(), 18},
		{"MEDLINE", xmlgen.MedlineDTD(), xmlgen.MedlineQueries(), 5},
	} {
		if len(ds.queries) != ds.k {
			t.Fatalf("%s: %d paper queries, want %d", ds.name, len(ds.queries), ds.k)
		}
		schema := dtd.MustParse(ds.dtd)
		var plans []*core.Plan
		for _, q := range ds.queries {
			table, err := compile.Compile(schema, paths.MustParseSet(q.Paths), compile.Options{})
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			plan := core.NewPlan(table, core.Options{})
			plans = append(plans, plan)
			checkReplayTables(t, q.ID, New([]*core.Plan{plan}))
		}
		checkReplayTables(t, fmt.Sprintf("%s K=%d", ds.name, ds.k), New(plans))
	}
}

func checkReplayTables(t *testing.T, label string, e *Engine) {
	t.Helper()
	toks := e.scan.Tokens()
	nkw := len(toks)
	if nkw != e.scan.KeywordCount() || len(e.closeOf) != nkw {
		t.Fatalf("%s: %d tokens, %d closeOf entries for %d keywords", label, nkw, len(e.closeOf), e.scan.KeywordCount())
	}
	for kw, tok := range toks {
		want := int32(-1)
		if !tok.Close {
			closing := glushkov.Closing(tok.Name)
			for id, other := range toks {
				if other == closing {
					want = int32(id)
				}
			}
		}
		if e.closeOf[kw] != want {
			t.Errorf("%s: closeOf[%d] (%v) = %d, want %d", label, kw, tok, e.closeOf[kw], want)
		}
	}
	for i, plan := range e.plans {
		table, rt := plan.Table(), &e.replay[i]
		if len(rt.trans) != len(table.States)*nkw {
			t.Fatalf("%s plan %d: %d table entries for %d states × %d keywords", label, i, len(rt.trans), len(table.States), nkw)
		}
		for _, st := range table.States {
			vocab := make(map[glushkov.Token]bool)
			for _, k := range st.Vocabulary {
				vocab[k.Token] = true
			}
			for kw, tok := range toks {
				want := int32(-1)
				if vocab[tok] {
					want = int32(table.Successor(st.ID, tok))
				}
				if got := rt.trans[st.ID*nkw+kw]; got != want {
					t.Errorf("%s plan %d: trans[q%d][%v] = %d, want %d", label, i, st.ID, tok, got, want)
				}
			}
			open, closeTag, bachelor := plan.TagStrings(st)
			if tb := rt.tags[st.ID]; !bytes.Equal(tb.open, []byte(open)) ||
				!bytes.Equal(tb.close, []byte(closeTag)) || !bytes.Equal(tb.bachelor, []byte(bachelor)) {
				t.Errorf("%s plan %d: q%d tag bytes %q/%q/%q, want %q/%q/%q", label, i, st.ID,
					tb.open, tb.close, tb.bachelor, open, closeTag, bachelor)
			}
		}
	}
}
