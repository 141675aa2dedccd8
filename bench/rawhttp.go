package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"

	"funabuse/internal/httpgate"
)

// benchReqHeader carries the request id that ties a client-side span to the
// server-side spans of the same request. Only traced passes send it.
const benchReqHeader = "X-Bench-Req"

// rawRequest serialises one HTTP/1.1 GET exactly as the load loop will
// write it. The generator writes these bytes and parses the answer with
// readResponse instead of going through net/http.Client, so nearly all the
// CPU a socket workload burns is the server's.
func rawRequest(target string, id identity, reqID uint64, traced bool) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "GET %s HTTP/1.1\r\nHost: bench\r\n", target)
	fmt.Fprintf(&b, "%s: %x\r\n", httpgate.FingerprintHeader, id.FP)
	fmt.Fprintf(&b, "X-Forwarded-For: %s\r\n", id.IP)
	fmt.Fprintf(&b, "Cookie: %s=%s\r\n", httpgate.ClientCookie, id.Session)
	if traced {
		fmt.Fprintf(&b, "%s: %d\r\n", benchReqHeader, reqID)
	}
	b.WriteString("\r\n")
	return b.Bytes()
}

// response is what the load loop needs from one answer.
type response struct {
	Status   int
	DeniedBy string // the X-Denied-By value, empty when absent
}

var (
	hdrDeniedBy      = []byte(httpgate.ReasonHeader)
	hdrContentLength = []byte("Content-Length")
	hdrTransferEnc   = []byte("Transfer-Encoding")
	errChunked       = errors.New("chunked response body not supported")
)

// knownReason returns the interned reason string for b, so the steady
// state of a run allocates nothing per response.
func knownReason(b []byte) string {
	switch string(b) {
	case httpgate.ReasonBlocklist:
		return httpgate.ReasonBlocklist
	case httpgate.ReasonEntity:
		return httpgate.ReasonEntity
	case httpgate.ReasonAccountTier:
		return httpgate.ReasonAccountTier
	case httpgate.ReasonAccountLimit:
		return httpgate.ReasonAccountLimit
	case httpgate.ReasonChallenge:
		return httpgate.ReasonChallenge
	case httpgate.ReasonPathLimit:
		return httpgate.ReasonPathLimit
	case httpgate.ReasonProfile:
		return httpgate.ReasonProfile
	case httpgate.ReasonResource:
		return httpgate.ReasonResource
	case httpgate.ReasonDecision:
		return httpgate.ReasonDecision
	}
	return string(b)
}

// readResponse reads one HTTP/1.1 response with a Content-Length body from
// br: the status, the X-Denied-By header, and the body discarded. It is a
// minimal parser for the answers this repository's servers give, not a
// general client: a chunked body is an error.
func readResponse(br *bufio.Reader) (response, error) {
	var resp response
	line, err := br.ReadSlice('\n')
	if err != nil {
		return resp, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return resp, fmt.Errorf("malformed status line %q", line)
	}
	if resp.Status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return resp, fmt.Errorf("malformed status line %q", line)
	}
	length := 0
	for {
		if line, err = br.ReadSlice('\n'); err != nil {
			return resp, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return resp, fmt.Errorf("malformed header line %q", line)
		}
		name, value := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, hdrDeniedBy):
			resp.DeniedBy = knownReason(value)
		case bytes.EqualFold(name, hdrContentLength):
			if length, err = strconv.Atoi(string(value)); err != nil || length < 0 {
				return resp, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, hdrTransferEnc):
			return resp, errChunked
		}
	}
	if _, err = br.Discard(length); err != nil {
		return resp, err
	}
	return resp, nil
}

// loadConn is one keep-alive connection of the load generator.
type loadConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialLoad(addr string) (*loadConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &loadConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// roundTrip writes one request and reads its answer.
func (lc *loadConn) roundTrip(req []byte) (response, error) {
	if _, err := lc.c.Write(req); err != nil {
		return response{}, err
	}
	return readResponse(lc.br)
}

func (lc *loadConn) close() {
	_ = lc.c.Close() // a load connection holds nothing that needs flushing
}
