package rpc_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"frangipani/internal/rpc"
)

// TestRegisteredTypesCarryEveryField sends each registered type, by
// value and by pointer, with every exported field set — nested structs,
// slice elements and map entries too — each to a value no other field
// holds, and requires the decoder to hand back every one of them in the
// shape it was sent. A type with an interface field is sent once with
// each registered type in it that the field can hold: every command of
// petal's AdminReq and of paxos' log entries among them.
func TestRegisteredTypesCarryEveryField(t *testing.T) {
	types := rpc.RegisteredTypes()
	for _, typ := range types {
		inner := []reflect.Type{nil}
		if iface := ifaceOf(typ); iface != nil {
			inner = nil
			for _, u := range types {
				if u.Implements(iface) {
					inner = append(inner, u, reflect.PointerTo(u))
				}
			}
		}
		for _, in := range inner {
			for _, byPtr := range []bool{false, true} {
				sent := filled(typ, in, byPtr)
				data, err := rpc.AppendMessage(nil, rpc.Envelope{ID: 7, Body: sent})
				if err != nil {
					t.Errorf("encode %T: %v", sent, err)
					continue
				}
				env, _, err := rpc.DecodeMessage(data, nil)
				if err != nil {
					t.Errorf("decode %T: %v", sent, err)
					continue
				}
				if d := diffExported(reflect.ValueOf(sent), reflect.ValueOf(env.Body), fmt.Sprintf("%T", sent)); d != "" {
					t.Error(d)
				}
			}
		}
	}
}

// oneOfEveryType returns a filled value of every registered type, each
// interface field holding the first registered type it can.
func oneOfEveryType() []any {
	types := rpc.RegisteredTypes()
	var out []any
	for _, typ := range types {
		var in reflect.Type
		if iface := ifaceOf(typ); iface != nil {
			for _, u := range types {
				if u.Implements(iface) && ifaceOf(u) == nil {
					in = u
					break
				}
			}
		}
		out = append(out, filled(typ, in, false))
	}
	return out
}

// ifaceOf returns the type of the first interface field under typ, or
// nil.
func ifaceOf(typ reflect.Type) reflect.Type {
	switch typ.Kind() {
	case reflect.Interface:
		return typ
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				if t := ifaceOf(f.Type); t != nil {
					return t
				}
			}
		}
	case reflect.Slice, reflect.Map:
		return ifaceOf(typ.Elem())
	}
	return nil
}

// filled returns a value of typ (a pointer to one when byPtr) with every
// field set by fill, interface fields holding a filled value of inner.
func filled(typ, inner reflect.Type, byPtr bool) any {
	v := reflect.New(typ)
	n := 0
	fill(v.Elem(), &n, inner)
	if byPtr {
		return v.Interface()
	}
	return v.Elem().Interface()
}

// fill sets every exported field under v to a non-zero value; *n counts
// the numbers and strings handed out, so no two fields share one. An
// interface field gets a filled value of inner (whose own interface
// fields stay nil), or stays nil when inner is nil.
func fill(v reflect.Value, n *int, inner reflect.Type) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n, inner)
	case reflect.Interface:
		if inner == nil {
			return
		}
		x := reflect.New(inner).Elem()
		fill(x, n, nil)
		v.Set(x)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n, inner)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n, inner)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, n, inner)
			fill(e, n, inner)
			v.SetMapIndex(k, e)
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
// differ, or returns "". Maps are compared entry by entry: their bytes
// on the wire are in no fixed order.
func diffExported(a, b reflect.Value, path string) string {
	if a.IsValid() != b.IsValid() {
		return fmt.Sprintf("%s: sent %v, decoded %v", path, a, b)
	}
	if !a.IsValid() {
		return ""
	}
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: sent a %s, decoded a %s", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
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
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: sent %d elements (nil %v), decoded %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffExported(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: sent %d entries (nil %v), decoded %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		keys := a.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			if d := diffExported(a.MapIndex(k), b.MapIndex(k), fmt.Sprintf("%s[%q]", path, k)); d != "" {
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
