package netsvc

// Resume tokens. The engine's state after k rounds is a pure function
// of (Scenario, seed, k) — including every inline per-tag RNG column —
// so the token serializes exactly that triple and nothing else: the
// client's pre-defaults scenario declaration, the run seed, and the
// round cursor. The server is stateless across resumes (a token minted
// by one process replays on another), and the replayed stream's bytes
// match the uninterrupted stream's tail by the purity contract.
//
// Wire format: unpadded base64url of the JSON
// {"v":1,"scenario":{...},"seed":S,"round":N}, with round last. Within
// one stream only the round changes, so a tokenMinter encodes the
// constant prefix once and each token costs a few bytes of base64.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/netsim"
)

// resumeTokenVersion guards the token schema; bump when the wire shape
// of resumeToken or the stream changes incompatibly.
const resumeTokenVersion = 1

// resumeToken is the wire form of a resume cursor.
type resumeToken struct {
	V int `json:"v"`
	// Scenario is the client's declaration BEFORE defaults: embedding
	// the pre-defaults form lets the replay walk the exact same
	// ApplyDefaults path (defaults are not idempotent — an explicit-zero
	// sentinel like ReqSNRZero resolves to a literal 0 that re-applying
	// defaults would turn back into the default).
	Scenario netsim.Scenario `json:"scenario"`
	Seed     uint64          `json:"seed"`
	// Round is the 1-based round the resumed stream emits first. It
	// must stay the last field: tokenMinter encodes everything before
	// it once per stream (the stream goldens and minter tests hold it
	// to that).
	Round int `json:"round"`
}

// tokenMinter mints the tokens of one stream: every field but Round is
// fixed, so the JSON up to `"round":` is marshaled once. Unpadded
// base64 of a 3-byte-aligned head followed by the rest equals the
// base64 of the whole, so the head is encoded once too and each token
// encodes only the head's ≤2 leftover bytes, the round digits and `}`.
type tokenMinter struct {
	head []byte // base64url of the prefix's 3-byte-aligned head
	rest []byte // the prefix's 0–2 bytes past the aligned head
	tail []byte // scratch: rest + round digits + '}'
}

// newTokenMinter prepares the tokens for t's version, scenario and
// seed; t.Round is ignored.
func newTokenMinter(t resumeToken) *tokenMinter {
	t.Round = 0
	b, err := json.Marshal(t)
	if err != nil {
		// A Scenario is plain data; marshaling cannot fail.
		panic(fmt.Sprintf("netsvc: marshal resume token: %v", err))
	}
	prefix, ok := bytes.CutSuffix(b, []byte("0}"))
	if !ok || !bytes.HasSuffix(prefix, []byte(`,"round":`)) {
		panic(fmt.Sprintf("netsvc: resume token JSON does not end in the round: %s", b))
	}
	n := len(prefix) / 3 * 3
	return &tokenMinter{
		head: base64.RawURLEncoding.AppendEncode(nil, prefix[:n]),
		rest: prefix[n:],
	}
}

// appendToken appends the token for round to dst.
func (m *tokenMinter) appendToken(dst []byte, round int) []byte {
	m.tail = strconv.AppendInt(append(m.tail[:0], m.rest...), int64(round), 10)
	m.tail = append(m.tail, '}')
	return base64.RawURLEncoding.AppendEncode(append(dst, m.head...), m.tail)
}

// encodeResumeToken renders a single token as URL-safe base64 JSON.
func encodeResumeToken(t resumeToken) string {
	return string(newTokenMinter(t).appendToken(nil, t.Round))
}

// decodeResumeToken parses and version-checks a client token. It is as
// strict as a scenario body: unknown fields at any level and trailing
// data are rejected.
func decodeResumeToken(s string) (resumeToken, error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return resumeToken{}, fmt.Errorf("not base64url: %w", err)
	}
	var t resumeToken
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return resumeToken{}, fmt.Errorf("not a token: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return resumeToken{}, errors.New("not a token: trailing data after the JSON object")
	}
	if t.V != resumeTokenVersion {
		return resumeToken{}, fmt.Errorf("token version %d, this server speaks %d", t.V, resumeTokenVersion)
	}
	if t.Round < 1 {
		return resumeToken{}, fmt.Errorf("token round %d out of range", t.Round)
	}
	return t, nil
}
