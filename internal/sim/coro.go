//go:build go1.23

package sim

import "iter"

// pull is iter.Pull. It has a file to itself because the module's
// go.mod says go 1.22 and must go on saying so (raising it makes the go
// command rewrite bench/go.mod, which depends on this module): the build
// constraint above raises the language version for this file alone,
// which is what lets it name a Go 1.23 API.
func pull(seq func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](seq))
}
