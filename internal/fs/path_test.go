package fs

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// refSplitPath is splitPath as it stood while it cut the path with
// strings.Split: the reference for what a path's components are.
func refSplitPath(path string) ([]string, error) {
	if path == "" {
		return nil, ErrInval
	}
	var parts []string
	for _, p := range strings.Split(path, "/") {
		switch p {
		case "", ".":
		case "..":
			if len(parts) == 0 {
				return nil, ErrInval
			}
			parts = parts[:len(parts)-1]
		default:
			if len(p) > MaxName {
				return nil, ErrNameTooLong
			}
			parts = append(parts, p)
		}
	}
	return parts, nil
}

// deepPath is a path of n components.
func deepPath(n int) string { return strings.Repeat("/d", n) }

// TestSplitPathSemantics: the scan over the string yields what the split
// into slices did, component for component and error for error.
func TestSplitPathSemantics(t *testing.T) {
	long, tooLong := strings.Repeat("n", MaxName), strings.Repeat("n", MaxName+1)
	for _, path := range []string{
		"", "/", "//", "///", ".", "./", "/.", "/./.", "..", "/..", "a/..", "/a/..", "/a/../..", "a/../..",
		"a", "/a", "a/", "/a/", "//a//b//", "/a/b/c", "a/b/c", "/a/./b", "/a/../b", "/a/b/..", "/a/b/../..",
		"/a/b/../../..", "/.../a", "/..a/.b", "/a/.../b", " / /", "/a b/c",
		long, "/" + long + "/x", tooLong, "/a/" + tooLong, "/" + tooLong + "/..",
		deepPath(pathRoom - 1), deepPath(pathRoom), deepPath(pathRoom + 1), deepPath(3 * pathRoom),
		deepPath(pathRoom+4) + strings.Repeat("/..", pathRoom+4), deepPath(pathRoom+4) + strings.Repeat("/..", pathRoom+5),
	} {
		want, wantErr := refSplitPath(path)
		var room [pathRoom]string
		got, err := splitPath(path, &room)
		if !errors.Is(err, wantErr) || (wantErr == nil && err != nil) {
			t.Errorf("splitPath(%q): error %v, want %v", path, err, wantErr)
			continue
		}
		if !slices.Equal(got, want) {
			t.Errorf("splitPath(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestSplitPathAllocs: up to pathRoom components are cut on the caller's
// stack; a deeper path takes its list from the heap.
func TestSplitPathAllocs(t *testing.T) {
	for _, c := range []struct {
		path string
		want float64
	}{
		{"/", 0}, {"/a/b/c", 0}, {"a/./b/../c//", 0}, {deepPath(pathRoom), 0},
		{deepPath(pathRoom) + "/../x", 0}, {deepPath(pathRoom + 1), 1},
	} {
		got := testing.AllocsPerRun(100, func() {
			var room [pathRoom]string
			parts, err := splitPath(c.path, &room)
			if err != nil || len(parts) == 0 && c.path != "/" {
				t.Fatal(len(parts), err) // not parts: room must stay on this stack
			}
		})
		if got != c.want {
			t.Errorf("splitPath(%q) allocates %v times, want %v", c.path, got, c.want)
		}
	}
}
