package sym

import "testing"

// DigestKey must depend only on structure — not on intern order,
// pointer identity, or process — and must keep distinct systems apart.
func TestDigestKeyStructural(t *testing.T) {
	mk := func() []Expr {
		x := NewVar("x", 32)
		return []Expr{
			NewBin(OpEq, NewBin(OpAdd, x, NewConst(7, 32)), NewConst(100, 32)),
			NewBin(OpUlt, x, NewConst(50, 32)),
		}
	}
	a, b := mk(), mk()
	ka, kb := DigestKey(a), DigestKey(b)
	if ka != kb {
		t.Fatalf("structurally equal systems got different digest keys:\n%s\n%s", ka, kb)
	}
	if len(ka) != 2*8*2 { // hex of 8 bytes per constraint
		t.Fatalf("unexpected key length %d for 2 constraints", len(ka))
	}

	other := []Expr{
		NewBin(OpEq, NewBin(OpAdd, NewVar("x", 32), NewConst(8, 32)), NewConst(100, 32)),
		NewBin(OpUlt, NewVar("x", 32), NewConst(50, 32)),
	}
	if DigestKey(other) == ka {
		t.Fatal("distinct systems collided")
	}

	// Order is significant: the key names the exact solver invocation.
	rev := []Expr{a[1], a[0]}
	if DigestKey(rev) == ka {
		t.Fatal("constraint order did not affect the key")
	}
}

// The digest key must be hex (JSON- and file-format-safe): it ends up
// inside sharedcache JSONL records.
func TestDigestKeyIsHex(t *testing.T) {
	k := DigestKey([]Expr{NewBin(OpEq, NewVar("v", 8), NewConst(3, 8))})
	for _, r := range k {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			t.Fatalf("non-hex rune %q in digest key %q", r, k)
		}
	}
}
