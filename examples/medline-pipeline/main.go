// Command medline-pipeline demonstrates streaming prefiltering in a pipeline
// (the setup of the paper's Fig. 7(b)): a MEDLINE-like citation document is
// prefiltered for one of the Table II XPath queries, and the projected
// stream is piped directly into a consumer — here a small scanner that
// counts the citations with a completion date — without ever materializing
// the full document in memory.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"strings"

	"smp"
)

func main() {
	size := flag.Int64("size", 4<<20, "size of the generated MEDLINE document in bytes")
	flag.Parse()

	dtdSrc, err := smp.DatasetDTD(smp.Medline)
	if err != nil {
		log.Fatal(err)
	}
	// Query M5 of the paper's Table II: completion dates of citations from
	// sterilization journals.
	q, ok := smp.QueryByID("M5")
	if !ok {
		log.Fatal("query M5 not found")
	}
	fmt.Printf("query %s: %s\n  %s\n\n", q.ID, q.Description, q.Query)

	pf, err := smp.Compile(dtdSrc, q.Paths, smp.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Producer: generate the document straight into the prefilter.
	// Consumer: read the projected stream and count DateCompleted elements.
	docReader, docWriter := io.Pipe()
	go func() {
		_, err := smp.Generate(smp.Medline, docWriter, *size, 7)
		docWriter.CloseWithError(err)
	}()

	projReader, projWriter := io.Pipe()
	statsCh := make(chan smp.Stats, 1)
	go func() {
		stats, err := pf.Project(context.Background(), projWriter, docReader)
		projWriter.CloseWithError(err)
		statsCh <- stats
	}()

	completed, bytesOut := countOccurrences(projReader, "<DateCompleted>")
	stats := <-statsCh

	fmt.Printf("document size       : %d bytes\n", stats.BytesRead)
	fmt.Printf("projected stream    : %d bytes (%.2f%% of the input)\n", bytesOut, 100*stats.OutputRatio())
	fmt.Printf("scan comparisons    : %.2f%% of the input\n", stats.CharCompPercent())
	fmt.Printf("citations with a completion date in the projection: %d\n", completed)
	fmt.Println("\nthe consumer saw only the prefiltered stream; prefilter memory stayed at",
		stats.MaxBufferBytes, "bytes")
}

// countOccurrences streams r and counts occurrences of marker, returning the
// count and the total number of bytes read.
func countOccurrences(r io.Reader, marker string) (int, int64) {
	br := bufio.NewReader(r)
	var total int64
	count := 0
	var carry string
	buf := make([]byte, 32*1024)
	for {
		n, err := br.Read(buf)
		if n > 0 {
			total += int64(n)
			chunk := carry + string(buf[:n])
			count += strings.Count(chunk, marker)
			// Keep a tail so markers spanning chunk boundaries are found.
			if len(chunk) > len(marker) {
				carry = chunk[len(chunk)-len(marker)+1:]
			} else {
				carry = chunk
			}
		}
		if err != nil {
			break
		}
	}
	return count, total
}
