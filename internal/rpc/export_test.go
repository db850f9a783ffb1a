package rpc

import (
	"reflect"
	"sort"
)

// RegisteredTypes lists every registered message type, ordered by name.
func RegisteredTypes() []reflect.Type {
	var ts []reflect.Type
	for t := range byType {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].String() < ts[j].String() })
	return ts
}
