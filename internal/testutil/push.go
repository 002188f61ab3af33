package testutil

import "github.com/dsms/hmts/internal/stream"

// Push delivers es to s on port as one batch — a batch of one for a single
// element, the way a source hands over a lone ready element.
func Push(s interface {
	ProcessBatch(port int, es []stream.Element)
}, port int, es ...stream.Element) {
	s.ProcessBatch(port, es)
}
