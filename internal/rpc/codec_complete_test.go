package rpc_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"frangipani/internal/lockservice"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
)

// handCodecs holds one value of every message type with a hand codec,
// by its wire tag. TestHandCodecsCarryEveryField fails for a tag with a
// registered decoder that is missing here, so a new hand codec arrives
// with its round trip.
var handCodecs = map[byte]rpc.WireMessage{
	petal.TagReadVReq:           &petal.ReadVReq{}, // requests travel by pointer
	petal.TagReadVResp:          petal.ReadVResp{},
	petal.TagWriteVReq:          &petal.WriteVReq{},
	petal.TagWriteVResp:         petal.WriteVResp{},
	lockservice.TagAcquireBatch: lockservice.AcquireBatch{},
	lockservice.TagReleaseBatch: lockservice.ReleaseBatch{},
	lockservice.TagWrongShard:   lockservice.WrongShard{},
}

// TestHandCodecsCarryEveryField sends each hand-codec type with every
// exported field set — nested structs and slice elements too — each to
// a value no other field holds, and requires the decoder to hand back
// every one of them: a field the encoder or the decoder forgets (as
// AcquireBatch's Renew once was) or two fields swapped fail here.
func TestHandCodecsCarryEveryField(t *testing.T) {
	for tag := 1; tag < 256; tag++ {
		_, _, err := rpc.DecodeMessage([]byte{byte(tag)}, nil)
		registered := !errors.Is(err, rpc.ErrUnknownTag)
		m, listed := handCodecs[byte(tag)]
		if registered && !listed {
			t.Errorf("tag %d has a registered decoder and no entry in handCodecs", tag)
		}
		if listed && !registered {
			t.Errorf("handCodecs lists %T under tag %d, which has no decoder", m, tag)
		}
	}
	for tag, zero := range handCodecs {
		v := reflect.New(reflect.TypeOf(zero)).Elem()
		n := 0
		fill(v, &n)
		sent := v.Interface()
		data, err := rpc.AppendMessage(nil, rpc.Envelope{ID: 7, Body: sent})
		if err != nil {
			t.Errorf("encode %T: %v", sent, err)
			continue
		}
		if data[0] != tag {
			t.Errorf("%T went out under tag %d, not %d", sent, data[0], tag)
			continue
		}
		out, _, err := rpc.DecodeMessage(data, nil)
		if err != nil {
			t.Errorf("decode %T: %v", sent, err)
			continue
		}
		got := out.(rpc.Envelope).Body
		if d := diffExported(reflect.ValueOf(sent), reflect.ValueOf(got), fmt.Sprintf("%T", sent)); d != "" {
			t.Error(d)
		}
		rpc.Release(got)
	}
}

// fill sets every exported field under v to a non-zero value; *n counts
// the numbers and strings handed out, so no two fields share one.
func fill(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*n++
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*n++
		v.SetUint(uint64(*n))
	default:
		panic(fmt.Sprintf("fill: no value for a %s", v.Type()))
	}
}

// diffExported names the first exported field under path where a and b
// differ, or returns "".
func diffExported(a, b reflect.Value, path string) string {
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: sent a %s, decoded a %s", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Pointer:
		return diffExported(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if f := a.Type().Field(i); f.IsExported() {
				if d := diffExported(a.Field(i), b.Field(i), path+"."+f.Name); d != "" {
					return d
				}
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: sent %d elements, decoded %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffExported(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	default:
		if !a.Equal(b) {
			return fmt.Sprintf("%s: sent %v, decoded %v", path, a, b)
		}
	}
	return ""
}
