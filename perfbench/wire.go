package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"evilbloom/internal/resp"
)

// The benchmark speaks the RESP plane through resp.Client, and creates
// filters and polls digests through net/http. HTTP item batches alone go
// through the lean keep-alive client below: driving http-batch with
// net/http's client on a two-vCPU VM took 4.6-5.9 us of client CPU per item
// (loadgen.cpu_us_per_kitem) against 2.7-3.4 us with this one, and cut
// items_per_s by 7-37% in paired runs, so the client limited the run. The
// traced replay takes its exact request bytes from the same encoders.

// respCommandName is the RESP command word for an op kind.
func respCommandName(k opKind) string {
	switch k {
	case opAdd:
		return "BF.MADD"
	case opRemove:
		return "CF.MDEL"
	}
	return "BF.MEXISTS"
}

// itemAnswers turns an item command's reply into one answer per item. An
// error reply is returned as *replyError.
func itemAnswers(r *resp.Reply, n int, dst []bool) ([]bool, error) {
	if r.Type == '-' {
		return dst, &replyError{msg: r.Str}
	}
	if r.Type != '*' || len(r.Elems) != n {
		return dst, fmt.Errorf("resp: want an array of %d answers, got %s", n, r.Format())
	}
	for _, e := range r.Elems {
		if e.Type != ':' || (e.Int != 0 && e.Int != 1) {
			return dst, fmt.Errorf("resp: want :0 or :1, got %s", e.Format())
		}
		dst = append(dst, e.Int == 1)
	}
	return dst, nil
}

// replyError is an error reply from the server: a refused or failed command.
type replyError struct{ msg string }

func (e *replyError) Error() string { return "server replied: " + e.msg }

// wireTap is a connection that only records what is written to it, so a
// resp.Client over it yields the exact bytes it would send to a server.
type wireTap struct {
	net.Conn
	buf []byte
}

func (t *wireTap) Write(b []byte) (int, error) {
	t.buf = append(t.buf, b...)
	return len(b), nil
}

// httpPath is the v2 path of an item command.
func httpPath(filter string, k opKind) string {
	switch k {
	case opAdd:
		return "/v2/filters/" + filter + "/add-batch"
	case opRemove:
		return "/v2/filters/" + filter + "/remove-batch"
	}
	return "/v2/filters/" + filter + "/test-batch"
}

// itemsBody is the JSON body of an HTTP item batch.
type itemsBody struct {
	Items []string `json:"items"`
	strs  []string
}

// encode returns the body for items; the slice is valid until the next call.
func (b *itemsBody) encode(items [][]byte) ([]byte, error) {
	b.strs = b.strs[:0]
	for _, it := range items {
		b.strs = append(b.strs, string(it))
	}
	b.Items = b.strs
	return json.Marshal(b)
}

// appendItemRequest appends the keep-alive POST of one HTTP item batch.
func appendItemRequest(dst []byte, host, filter string, k opKind, body []byte) []byte {
	dst = append(dst, "POST "...)
	dst = append(dst, httpPath(filter, k)...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	dst = append(dst, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// itemConn is one keep-alive connection carrying HTTP item batches.
type itemConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialItems(addr string) (*itemConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &itemConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// roundTrip writes one request and reads its response, which must carry a
// Content-Length: the server sends one with every item-batch answer. The
// body is valid until the next call.
func (c *itemConn) roundTrip(req []byte) (status int, body []byte, err error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("http: bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("http: bad status line %q", line)
	}
	length := -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		if bytes.EqualFold(name, []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(value))); err != nil {
				return 0, nil, fmt.Errorf("http: bad content length %q", value)
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("http: %d response without a Content-Length", status)
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	_, err = io.ReadFull(c.br, c.body)
	return status, c.body, err
}

func (c *itemConn) Close() error { return c.c.Close() }

// httpClient returns a client holding one keep-alive connection.
func httpClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}
}

// fetch runs one request and reads its whole body into body, so the
// connection is kept for the next request.
func fetch(c *http.Client, req *http.Request, body *bytes.Buffer) (*http.Response, error) {
	res, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	body.Reset()
	_, err = body.ReadFrom(res.Body)
	return res, err
}

// serverRequest parses a request's exact bytes as the server receives them.
func serverRequest(wire []byte, remote string) (*http.Request, error) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil {
		return nil, err
	}
	req.RemoteAddr = remote
	return req, nil
}
