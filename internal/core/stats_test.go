package core

import (
	"reflect"
	"testing"
)

// TestFunnelAddCoversEveryField: Add is the one hand-written list of
// Funnel's fields, and every sum — worker total, engine counters, query
// capture, shard sum — goes through it. A field missing from it would be
// charged and then silently dropped.
func TestFunnelAddCoversEveryField(t *testing.T) {
	var src Funnel
	v := reflect.ValueOf(&src).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	var dst Funnel
	dst.Add(&src)
	dst.Add(&src)
	d := reflect.ValueOf(dst)
	for i := 0; i < d.NumField(); i++ {
		if got, want := d.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("after adding %d twice to a zero record, %s = %d, want %d: is it missing from Funnel.Add?",
				i+1, d.Type().Field(i).Name, got, want)
		}
	}
}
