package corpus_test

import (
	"context"
	"fmt"
	"io"
	"log"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/corpus"
	"smp/internal/dtd"
	"smp/internal/index"
	"smp/internal/paths"
	"smp/internal/pipeline"
)

// pipelineEngine runs a single-query pipeline engine for the runner with
// fixed per-run options. Package smp's Batch adapter is the same, plus
// index replay.
type pipelineEngine struct {
	eng  *pipeline.Engine
	opts pipeline.Options
}

func (pipelineEngine) Multi() bool { return false }

func (e pipelineEngine) Project(ctx context.Context, dsts []io.Writer, src io.Reader, _ *index.Index) ([]core.Stats, core.Stats, error) {
	res, err := e.eng.Project(ctx, dsts, src, e.opts)
	return res.Query, res.Aggregate(), err
}

// newEngine compiles the projection paths against the DTD of paper Fig. 1.
func newEngine(pathSpec string) corpus.Engine {
	table, err := compile.Compile(dtd.MustParse(auctionDTD), paths.MustParseSet(pathSpec), compile.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return pipelineEngine{eng: pipeline.New([]*core.Plan{core.NewPlan(table, core.Options{})})}
}

// The simplified XMark DTD of paper Fig. 1.
const auctionDTD = `<!DOCTYPE site [
<!ELEMENT site (regions)>
<!ELEMENT regions (africa, asia, australia)>
<!ELEMENT africa (item*)>
<!ELEMENT asia (item*)>
<!ELEMENT australia (item*)>
<!ELEMENT item (location,name,payment,description,shipping,incategory+)>
<!ELEMENT incategory EMPTY>
<!ATTLIST incategory category ID #REQUIRED>
<!ELEMENT location (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT payment (#PCDATA)>
<!ELEMENT description (#PCDATA)>
<!ELEMENT shipping (#PCDATA)>
]>`

// ExampleRunner shards a three-document batch across two workers sharing
// one goroutine-safe engine, discarding the projections and reporting the
// aggregate counters.
func ExampleRunner() {
	engine := newEngine("/*, //australia//description#")

	doc := []byte(`<site><regions><africa/><asia/><australia><item><location>Egypt</location><name>PDA</name><payment>Check</payment><description>Palm Zire 71</description><shipping/><incategory category="3"/></item></australia></regions></site>`)
	jobs := []corpus.Job{
		corpus.FromBytes("a.xml", doc),
		corpus.FromBytes("b.xml", doc),
		corpus.FromBytes("c.xml", doc),
	}

	runner := corpus.Runner{Engine: engine, Workers: 2}
	results, agg := runner.Run(context.Background(), jobs)

	for _, res := range results {
		fmt.Printf("%s: %d -> %d bytes (err=%v)\n", res.Name, res.Stats.BytesRead, res.Stats.BytesWritten, res.Err)
	}
	fmt.Printf("batch: %d documents, %d failed\n", agg.Documents, agg.Failed)
	// Output:
	// a.xml: 226 -> 75 bytes (err=<nil>)
	// b.xml: 226 -> 75 bytes (err=<nil>)
	// c.xml: 226 -> 75 bytes (err=<nil>)
	// batch: 3 documents, 0 failed
}

// ExampleJob_Dst keeps one projection by attaching a destination to a job.
func ExampleJob_Dst() {
	engine := newEngine("/*, //australia//description#")

	doc := []byte(`<site><regions><africa/><asia/><australia><item><location>X</location><name>N</name><payment>P</payment><description>D</description><shipping/><incategory category="1"/></item></australia></regions></site>`)

	out := &printWriter{}
	job := corpus.FromBytes("doc.xml", doc)
	job.Dst = func() (io.WriteCloser, error) { return out, nil }

	_, agg := (&corpus.Runner{Engine: engine, Workers: 1}).Run(context.Background(), []corpus.Job{job})
	fmt.Printf("failed: %d\n", agg.Failed)
	fmt.Println(out.String())
	// Output:
	// failed: 0
	// <site><australia><description>D</description></australia></site>
}

// printWriter collects written bytes (an in-memory WriteCloser).
type printWriter struct{ data []byte }

func (w *printWriter) Write(p []byte) (int, error) { w.data = append(w.data, p...); return len(p), nil }
func (w *printWriter) Close() error                { return nil }
func (w *printWriter) String() string              { return string(w.data) }
