//go:build amd64 && !purego

package encrypt

// haveAESNI is read once: without AES-NI the kernel is never entered.
var haveAESNI = cpuidAESNI()

//go:noescape
func cpuidAESNI() bool

//go:noescape
func expandKeyAsm(key *[KeySize]byte, xk *[176]byte)

//go:noescape
func xorKeyStreamAsm(xk *[176]byte, lo, hi uint64, dst, src []byte)
