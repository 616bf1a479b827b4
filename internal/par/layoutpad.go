//go:build layoutpad

package par

// Built only by `make layout`, which checks that it did its job: the
// function below and the init that references it add an odd multiple of
// 32 bytes of text, so every package the linker lays out after par —
// coords among them — starts on the other half of a 64-byte line. The
// fit's speed must not depend on which half it gets.

//go:noinline
func layoutPad(a int) int { return a + 32 }

var _ = layoutPad(4)
