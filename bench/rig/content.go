package rig

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"

	"zdr/internal/http1"
)

// Sizes of the seeded material.
const (
	// DynMax is the largest n GET /dyn/<n> serves.
	DynMax = 4096
	// PostSize is the body of one http_post_1m request.
	PostSize = 1 << 20
	// QuicTargets is how many distinct datagram requests exist.
	QuicTargets = 16
	// QuicSize is the datagram payload length in both directions.
	QuicSize = 64
)

// Content is every byte the rig serves and the generator checks replies
// against, derived from the seed alone, so that a wrong answer is
// detectable and the same seed gives byte-identical inputs.
type Content struct {
	// Dyn backs GET /dyn/<n>: the reply body is Dyn[:n].
	Dyn []byte
	// Post is the pool POST bodies are cut from: body k is
	// Post[k%PostSize:][:PostSize], so consecutive requests differ.
	Post []byte
	// QuicKeys are the datagram request payloads; QuicBodies[i] is what
	// an edge has cached for QuicKeys[i] and answers with, after its
	// own name and a '|'.
	QuicKeys   [QuicTargets][]byte
	QuicBodies [QuicTargets][]byte
}

// NewContent derives the content from seed. edgeNameLen is the length
// of an edge's name, so that a datagram reply is QuicSize bytes too.
func NewContent(seed int64, edgeNameLen int) *Content {
	rnd := rand.New(rand.NewSource(seed))
	c := &Content{Dyn: make([]byte, DynMax), Post: make([]byte, 2*PostSize)}
	rnd.Read(c.Dyn)
	rnd.Read(c.Post)
	for i := range c.QuicKeys {
		c.QuicKeys[i] = make([]byte, QuicSize)
		c.QuicBodies[i] = make([]byte, QuicSize-edgeNameLen-1)
		rnd.Read(c.QuicKeys[i])
		rnd.Read(c.QuicBodies[i])
	}
	return c
}

// PostBody is the k-th POST body.
func (c *Content) PostBody(k int) []byte {
	off := k % PostSize
	return c.Post[off : off+PostSize]
}

// static is the edge cache the datagram handler answers from.
func (c *Content) static() map[string][]byte {
	m := make(map[string][]byte, QuicTargets)
	for i, k := range c.QuicKeys {
		m[string(k)] = c.QuicBodies[i]
	}
	return m
}

// QuicReply is the datagram payload edge answers QuicKeys[i] with.
func (c *Content) QuicReply(edge string, i int) []byte {
	out := make([]byte, 0, QuicSize)
	out = append(out, edge...)
	out = append(out, '|')
	return append(out, c.QuicBodies[i]...)
}

// Handle is the app servers' handler: GET /dyn/<n> answers n seeded
// bytes, and a request with a body gets the body back.
func (c *Content) Handle(req *http1.Request, body []byte) *http1.Response {
	if req.Method == "GET" {
		n, err := strconv.Atoi(strings.TrimPrefix(req.Target, "/dyn/"))
		if err != nil || n < 0 || n > DynMax || !strings.HasPrefix(req.Target, "/dyn/") {
			return http1.NewResponse(404, nil, 0)
		}
		return http1.NewResponse(200, bytes.NewReader(c.Dyn[:n]), int64(n))
	}
	return http1.NewResponse(200, bytes.NewReader(body), int64(len(body)))
}
