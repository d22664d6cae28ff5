// Package config implements the parameterization machinery of the paper's
// Repeatability chapter: a Properties store filled from -Dkey=value
// command-line arguments (the java.util.Properties pattern the paper
// walks through) and read through typed getters — so that producing a
// measurement for f1=v1, ..., fk=vk never requires editing source code
// ("You may omit coding like this: the input data set files should be
// specified in source file util.GlobalProperty.java"). perfeval binds
// every property it takes through it.
package config

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Properties is an ordered string-to-string parameter map.
type Properties struct {
	values map[string]string
	order  []string
}

// New returns an empty Properties.
func New() *Properties {
	return &Properties{values: make(map[string]string)}
}

// Set stores a key.
func (p *Properties) Set(key, value string) {
	if _, exists := p.values[key]; !exists {
		p.order = append(p.order, key)
	}
	p.values[key] = value
}

// Get retrieves a key. The error names the key and the known keys —
// "report meaningful error".
func (p *Properties) Get(key string) (string, error) {
	if v, ok := p.values[key]; ok {
		return v, nil
	}
	return "", fmt.Errorf("config: parameter %q is not set (known: %s)", key, strings.Join(p.order, ", "))
}

// GetOr retrieves a key or returns fallback.
func (p *Properties) GetOr(key, fallback string) string {
	if v, err := p.Get(key); err == nil {
		return v
	}
	return fallback
}

// GetInt retrieves an integer parameter.
func (p *Properties) GetInt(key string) (int, error) {
	v, err := p.Get(key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil {
		return 0, fmt.Errorf("config: parameter %q = %q is not an integer", key, v)
	}
	return n, nil
}

// GetFloat retrieves a float parameter (C-locale).
func (p *Properties) GetFloat(key string) (float64, error) {
	v, err := p.Get(key)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0, fmt.Errorf("config: parameter %q = %q is not a number", key, v)
	}
	return f, nil
}

// GetBool retrieves a boolean parameter (true/false/1/0/yes/no).
func (p *Properties) GetBool(key string) (bool, error) {
	v, err := p.Get(key)
	if err != nil {
		return false, err
	}
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "true", "1", "yes", "on":
		return true, nil
	case "false", "0", "no", "off":
		return false, nil
	default:
		return false, fmt.Errorf("config: parameter %q = %q is not a boolean", key, v)
	}
}

// GetDuration retrieves a Go-syntax duration parameter ("150ms").
func (p *Properties) GetDuration(key string) (time.Duration, error) {
	v, err := p.Get(key)
	if err != nil {
		return 0, err
	}
	d, err := time.ParseDuration(strings.TrimSpace(v))
	if err != nil {
		return 0, fmt.Errorf("config: parameter %q = %q is not a duration", key, v)
	}
	return d, nil
}

// Keys returns every key in insertion order.
func (p *Properties) Keys() []string { return slices.Clone(p.order) }

// ApplyArgs overlays -Dkey=value command-line arguments (the paper's
// "java -DdataDir=./test" pattern) and returns the remaining arguments.
// Malformed -D arguments produce an error.
func (p *Properties) ApplyArgs(args []string) (rest []string, err error) {
	for _, a := range args {
		if !strings.HasPrefix(a, "-D") {
			rest = append(rest, a)
			continue
		}
		body := a[2:]
		eq := strings.IndexByte(body, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("config: malformed property argument %q; want -Dkey=value", a)
		}
		p.Set(body[:eq], body[eq+1:])
	}
	return rest, nil
}
