package service

import (
	"errors"
	"testing"
	"time"

	pathoram "repro"
)

// TestServerCreateOpensOutsideTheLock holds a Create inside open: Get of
// an existing tenant still returns, and a Close that runs meanwhile makes
// the Create return ErrClosed with its new client closed.
func TestServerCreateOpensOutsideTheLock(t *testing.T) {
	svc, err := New(Config{Template: pathoram.Spec{Blocks: 64, BlockSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Create("alice"); err != nil {
		t.Fatal(err)
	}
	prev := open
	t.Cleanup(func() { open = prev })
	inside, release := make(chan pathoram.Client, 1), make(chan struct{})
	open = func(spec pathoram.Spec) (pathoram.Client, error) {
		c, err := prev(spec)
		inside <- c
		<-release
		return c, err
	}
	created := make(chan error, 1)
	go func() {
		_, err := svc.Create("bob")
		created <- err
	}()
	bob := <-inside

	within := func(what string, fn func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- fn() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waited for a Create blocked in open", what)
		}
	}
	within("Get", func() error { _, err := svc.Get("alice"); return err })
	within("Close", svc.Close)
	close(release)
	if err := <-created; !errors.Is(err, ErrClosed) {
		t.Fatalf("Create across Close returned %v, want ErrClosed", err)
	}
	if _, err := bob.Read(0); !errors.Is(err, pathoram.ErrClosed) {
		t.Errorf("the abandoned tenant's client still serves: Read returned %v", err)
	}
}
