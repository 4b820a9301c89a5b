package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"time"
)

// client speaks the server's HTTP API over loopback. One client value
// is shared by the load goroutines; its transport opens at most
// maxConns connections.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
	bufs sync.Pool // *bytes.Buffer response bodies, reused so reading one allocates little
}

const maxConns = 2 // nproc on the machine the benchmark was sized on

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	c := &client{base: base, hc: &http.Client{Transport: tr}, tr: tr}
	c.bufs.New = func() any { return new(bytes.Buffer) }
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// answer is a checked query response.
type answer struct {
	N      int  // rows in the body
	Cached bool // served from the result cache
	Bytes  int  // body bytes read
	// End is when the last body byte had been read: the end of the
	// round trip, before the harness checks the body.
	End time.Time
	// Rows and Digest (a hash of the rows, in order) are set only when
	// the body was decoded in full.
	Rows   [][]string
	Digest uint64
}

// statusError is a non-200 response.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// query sends q to /api/query, or to /api/query/stream when q.Stream
// is set; noCache asks /api/query to bypass the result cache. Every
// body is checked after the round trip ends. Only with full are its
// rows decoded and hashed; otherwise they are counted in one pass that
// builds no rows.
func (c *client) query(ctx context.Context, q request, noCache, full bool) (answer, error) {
	path := "/api/query"
	if q.Stream && !noCache {
		path = "/api/query/stream"
	}
	// Marshalling a string and a bool cannot fail.
	body, _ := json.Marshal(map[string]any{"query": q.Text, "noCache": noCache})
	buf := c.bufs.Get().(*bytes.Buffer)
	defer c.bufs.Put(buf)
	raw, err := c.post(ctx, path, body, buf)
	a := answer{Bytes: len(raw), End: time.Now()}
	if err != nil {
		return a, err
	}
	if path == "/api/query" {
		err = parseQuery(raw, &a, full)
	} else {
		err = parseStream(raw, &a, full)
	}
	if full {
		a.Digest = digest(a.Rows)
	}
	return a, err
}

// update calls the admin endpoint, waiting for any update in flight.
func (c *client) update(ctx context.Context) (applied bool, epoch int64, err error) {
	buf := c.bufs.Get().(*bytes.Buffer)
	defer c.bufs.Put(buf)
	raw, err := c.post(ctx, "/api/admin/update?wait=true", nil, buf)
	if err != nil {
		return false, 0, err
	}
	var res struct {
		Applied bool  `json:"applied"`
		Epoch   int64 `json:"epoch"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return false, 0, fmt.Errorf("update response: %w", err)
	}
	return res.Applied, res.Epoch, nil
}

// post sends body to path and reads the response into buf, which the
// returned bytes alias.
func (c *client) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return buf.Bytes(), err
	}
	raw := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return raw, &statusError{resp.StatusCode, strings.TrimSpace(string(raw))}
	}
	return raw, nil
}

// rowsField decodes a JSON array of rows: in full, or, without full,
// only counting them in one pass that builds nothing (the decoder has
// already checked the syntax).
type rowsField struct {
	full bool
	n    int
	rows [][]string
}

func (f *rowsField) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	if f.full {
		err := json.Unmarshal(b, &f.rows)
		f.n = len(f.rows)
		return err
	}
	if b[0] != '[' {
		return fmt.Errorf("rows: not an array")
	}
	depth, inStr, esc := 0, false, false
	for _, ch := range b {
		switch {
		case inStr:
			if esc {
				esc = false
			} else if ch == '\\' {
				esc = true
			} else if ch == '"' {
				inStr = false
			}
		case ch == '"':
			inStr = true
		case ch == '[' || ch == '{':
			depth++
			if depth == 2 {
				f.n++
			}
		case ch == ']' || ch == '}':
			depth--
		}
	}
	return nil
}

func parseQuery(raw []byte, a *answer, full bool) error {
	var r struct {
		Columns []string  `json:"columns"`
		Rows    rowsField `json:"rows"`
		Count   int       `json:"count"`
		Cached  bool      `json:"cached"`
	}
	r.Rows.full = full
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("query body: %w", err)
	}
	if r.Columns == nil || r.Count != r.Rows.n {
		return fmt.Errorf("query body: %d rows for count %d", r.Rows.n, r.Count)
	}
	a.N, a.Rows, a.Cached = r.Rows.n, r.Rows.rows, r.Cached
	return nil
}

// rowPrefix starts every NDJSON row line the server writes.
var rowPrefix = []byte(`{"row":[`)

// parseStream checks an NDJSON body: a header line with the columns,
// one line per row, and a terminal line that counts them and carries no
// error.
func parseStream(raw []byte, a *answer, full bool) error {
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines) < 2 {
		return fmt.Errorf("stream body: %d lines", len(lines))
	}
	var head struct {
		Columns []string `json:"columns"`
		Cached  bool     `json:"cached"`
	}
	if err := json.Unmarshal(lines[0], &head); err != nil || head.Columns == nil {
		return fmt.Errorf("stream header %q: %v", lines[0], err)
	}
	for _, l := range lines[1 : len(lines)-1] {
		if !full {
			if !bytes.HasPrefix(l, rowPrefix) || !json.Valid(l) {
				return fmt.Errorf("stream row %q", l)
			}
			a.N++
			continue
		}
		var row struct {
			Row []string `json:"row"`
		}
		if err := json.Unmarshal(l, &row); err != nil || row.Row == nil {
			return fmt.Errorf("stream row %q: %v", l, err)
		}
		a.Rows = append(a.Rows, row.Row)
		a.N++
	}
	var term struct {
		Count *int64 `json:"count"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &term); err != nil || term.Count == nil {
		return fmt.Errorf("stream terminal %q: %v", lines[len(lines)-1], err)
	}
	if term.Error != "" || *term.Count != int64(a.N) {
		return fmt.Errorf("stream ended with %d/%d rows: %s", *term.Count, a.N, term.Error)
	}
	a.Cached = head.Cached
	return nil
}

// digest hashes formatted rows, order- and byte-sensitive.
func digest(rows [][]string) uint64 {
	h := fnv.New64a()
	for _, row := range rows {
		for _, c := range row {
			h.Write([]byte(c))
			h.Write([]byte{0})
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
