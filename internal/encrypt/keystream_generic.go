//go:build !amd64 || purego

package encrypt

const haveAESNI = false

// Never called: haveAESNI guards both.
func expandKeyAsm(*[KeySize]byte, *[176]byte)                    {}
func xorKeyStreamAsm(*[176]byte, uint64, uint64, []byte, []byte) {}
