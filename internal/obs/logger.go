package obs

import (
	"fmt"
	"strings"
)

// Level is a log severity.
type Level int8

// Severities, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return fmt.Sprintf("LEVEL(%d)", int8(l))
	}
}

// ParseLevel parses a level name (case-insensitive).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("obs: unknown log level %q", s)
	}
}

// Logger is a leveled, structured event logger. Field context added with
// With is rendered after the message as space-separated key=value pairs,
// so a connection-scoped logger carries its conn id, FSM state, and host
// on every line. The sink is any printf-style function (log.Printf, a
// testing.T's Logf, ...), which keeps the tree compatible with the
// pre-existing Config.Logf plumbing.
//
// A nil *Logger discards everything. Loggers are immutable; With returns
// a derived logger and is safe for concurrent use.
type Logger struct {
	min    Level
	sink   func(format string, args ...any)
	fields string // rendered " k=v k=v" suffix
}

// NewLogger builds a logger emitting lines at or above min to sink. A
// nil sink yields a nil (discard-everything) logger.
func NewLogger(sink func(format string, args ...any), min Level) *Logger {
	if sink == nil {
		return nil
	}
	return &Logger{min: min, sink: sink}
}

// With returns a logger that appends key=value to every line.
func (l *Logger) With(key string, value any) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{
		min:    l.min,
		sink:   l.sink,
		fields: l.fields + " " + key + "=" + fmt.Sprint(value),
	}
}

// Enabled reports whether lines at lv would be emitted — the guard for
// instrumentation that is expensive to format.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= l.min
}

// Logf emits one line at lv.
func (l *Logger) Logf(lv Level, format string, args ...any) {
	if !l.Enabled(lv) {
		return
	}
	l.sink("%-5s %s%s", lv, fmt.Sprintf(format, args...), l.fields)
}

// Debugf emits at LevelDebug: per-transition, per-frame detail.
func (l *Logger) Debugf(format string, args ...any) { l.Logf(LevelDebug, format, args...) }

// Infof emits at LevelInfo: lifecycle edges (open, suspend, resume,
// close, migrate).
func (l *Logger) Infof(format string, args ...any) { l.Logf(LevelInfo, format, args...) }

// Warnf emits at LevelWarn: degraded but recoverable conditions.
func (l *Logger) Warnf(format string, args ...any) { l.Logf(LevelWarn, format, args...) }

// Errorf emits at LevelError: operations that failed outright.
func (l *Logger) Errorf(format string, args ...any) { l.Logf(LevelError, format, args...) }
