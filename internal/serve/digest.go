package serve

import (
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"
)

// headerReprDigest carries the SHA-256 of a JSON table body (RFC 9530).
const headerReprDigest = "Repr-Digest"

// formatReprDigest renders sum as a Repr-Digest field value:
// sha-256=:<base64>:. It builds the value on the stack, so stamping a
// response costs one allocation, the string.
func formatReprDigest(sum [sha256.Size]byte) string {
	var b [len("sha-256=::") + (sha256.Size+2)/3*4]byte
	n := copy(b[:], "sha-256=:")
	base64.StdEncoding.Encode(b[n:], sum[:])
	b[len(b)-1] = ':'
	return string(b[:])
}

// parseReprDigest returns the SHA-256 a Repr-Digest field value
// carries. The value is a structured-field dictionary (RFC 8941) of
// algorithm keys and byte-sequence values, e.g.
// "sha-256=:<base64>:, sha-512=:<base64>:"; members for other
// algorithms are skipped. It fails unless exactly one sha-256 member is
// present and its value is a byte sequence of exactly 32 bytes: the
// header comes from another replica, so anything it cannot vouch for is
// refused rather than guessed at.
func parseReprDigest(v string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	found := false
	for _, member := range strings.Split(v, ",") {
		key, val, _ := strings.Cut(strings.TrimSpace(member), "=")
		if key != "sha-256" {
			continue
		}
		if found {
			return sum, errors.New("repr-digest: duplicate sha-256 member")
		}
		b64, ok := strings.CutPrefix(val, ":")
		if ok {
			b64, ok = strings.CutSuffix(b64, ":")
		}
		raw, err := base64.StdEncoding.Strict().DecodeString(b64)
		if !ok || err != nil || len(raw) != sha256.Size {
			return sum, fmt.Errorf("repr-digest: sha-256 value %q is not a 32-byte byte sequence", val)
		}
		copy(sum[:], raw)
		found = true
	}
	if !found {
		return sum, errors.New("repr-digest: no sha-256 member")
	}
	return sum, nil
}
