// An external test unit of a scoped package is in scope with it.
package tune_test

import (
	"os"
	"sync"
)

var mu sync.Mutex

func readLocked(path string) ([]byte, error) {
	mu.Lock()
	defer mu.Unlock()
	return os.ReadFile(path) // want `call to os.ReadFile while holding mu`
}
