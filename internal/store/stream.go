package store

// Streaming mutations: POST /graphs/{id}/stream is NDJSON framing of
// Store.Mutate — one MutateRequest per line in, one StreamLine result
// per batch out (flushed as it lands), plus a trailing summary. Each
// line is exactly one PATCH /graphs/{id}/edges batch: same pipeline,
// same validation, same WAL record and version step (see mutate.go).
//
// Batches in one stream are independent: a rejected batch (validation,
// disconnection, version conflict) reports its error on its result
// line and the stream continues with the next line. NDJSON decode
// errors end the stream (there is no way to resync a broken framing).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"bcmh/internal/engine"
)

// StreamLine is one NDJSON result line of POST /graphs/{id}/stream,
// answering the same-ordinal request line. Exactly one of the version
// fields or Error is meaningful: a rejected batch carries Error and
// changes nothing.
type StreamLine struct {
	Seq     int  `json:"seq"`
	Applied bool `json:"applied"`
	// Version/N/M/Added/Removed mirror MutateResponse for an applied
	// batch.
	Version       uint64 `json:"version,omitempty"`
	N             int    `json:"n,omitempty"`
	M             int    `json:"m,omitempty"`
	Added         int    `json:"added,omitempty"`
	Removed       int    `json:"removed,omitempty"`
	MuRetained    int    `json:"mu_retained,omitempty"`
	MuInvalidated int    `json:"mu_invalidated,omitempty"`
	Error         string `json:"error,omitempty"`
}

// StreamSummary is the trailing NDJSON line of a stream response:
// totals over the whole request.
type StreamSummary struct {
	Done     bool   `json:"done"`
	Applied  int    `json:"applied"`
	Rejected int    `json:"rejected"`
	Version  uint64 `json:"version"`
}

// handleStream serves POST /graphs/{id}/stream: NDJSON MutateRequest
// lines in, NDJSON StreamLine results out (flushed per batch, so a
// client piping a live feed sees acknowledgements as they land), one
// StreamSummary line at the end.
func (s *storeServer) handleStream(w http.ResponseWriter, r *http.Request) {
	sess, release, err := s.st.Acquire(r.PathValue("id"))
	if err != nil {
		engine.WriteError(w, storeStatus(err), err)
		return
	}
	defer release()
	// Result lines go out while request lines are still coming in;
	// without full duplex the server closes the request body on the
	// first write. Ignore the error: a transport that can't do it
	// (HTTP/2 always can, HTTP/1.1 can since Go 1.21) still works for
	// clients that send the whole request up front.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	dec := json.NewDecoder(r.Body)
	var applied, rejected int
	version := sess.Version()
	for seq := 0; ; seq++ {
		var req MutateRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			// A framing error poisons everything after it; report and
			// stop rather than guess at a resync point.
			rejected++
			_ = enc.Encode(StreamLine{Seq: seq, Error: fmt.Sprintf("decoding batch: %v", err)})
			break
		}
		line := StreamLine{Seq: seq}
		if edits, err := sess.editsOfRequest(&req); err != nil {
			line.Error = err.Error()
		} else if out, err := s.st.Mutate(sess, edits, req.IfVersion); err != nil {
			line.Error = err.Error()
		} else {
			line.Applied = true
			line.Version = out.Info.Version
			line.N = out.Info.N
			line.M = out.Info.M
			line.Added = out.Added
			line.Removed = out.Removed
			line.MuRetained = out.Swap.MuRetained
			line.MuInvalidated = out.Swap.MuInvalidated
			version = out.Info.Version
		}
		if line.Applied {
			applied++
		} else {
			rejected++
		}
		_ = enc.Encode(line)
		flush()
	}
	_ = enc.Encode(StreamSummary{Done: true, Applied: applied, Rejected: rejected, Version: version})
	flush()
}
