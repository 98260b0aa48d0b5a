package core

import (
	"reflect"
	"testing"
)

// TestStageTimesAddCoversEveryField fills every int64 field of a
// StageTimes with a distinct value and requires Add to carry each one,
// so a stage added to the struct but not to Add fails here instead of
// silently missing from the /statz totals.
func TestStageTimesAddCoversEveryField(t *testing.T) {
	var in StageTimes
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("StageTimes.%s is %s, not int64", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	var sum StageTimes
	sum.Add(in)
	sum.Add(in)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if want := 2 * int64(i+1); got.Field(i).Int() != want {
			t.Errorf("Add skips StageTimes.%s: got %d, want %d", got.Type().Field(i).Name, got.Field(i).Int(), want)
		}
	}
}
