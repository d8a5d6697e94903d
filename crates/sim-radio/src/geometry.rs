/// A 2-D point in metres, in building-local coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting in metres.
    pub x: f32,
    /// Northing in metres.
    pub y: f32,
}

impl Point {
    /// Creates a point from coordinates in metres.
    pub fn new(x: f32, y: f32) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, in metres.
    pub fn distance(&self, other: &Point) -> f32 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    pub fn lerp(&self, other: &Point, t: f32) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }
}

/// A 2-D line segment (wall or path leg).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment between two points.
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length in metres.
    pub fn length(&self) -> f32 {
        self.a.distance(&self.b)
    }

    /// Tests whether this segment intersects `other` (proper or endpoint
    /// intersection).
    pub fn intersects(&self, other: &Segment) -> bool {
        fn orientation(p: Point, q: Point, r: Point) -> i8 {
            let v = (q.y - p.y) * (r.x - q.x) - (q.x - p.x) * (r.y - q.y);
            if v.abs() < 1e-9 {
                0
            } else if v > 0.0 {
                1
            } else {
                -1
            }
        }
        fn on_segment(p: Point, q: Point, r: Point) -> bool {
            q.x <= p.x.max(r.x) + 1e-9
                && q.x + 1e-9 >= p.x.min(r.x)
                && q.y <= p.y.max(r.y) + 1e-9
                && q.y + 1e-9 >= p.y.min(r.y)
        }
        let o1 = orientation(self.a, self.b, other.a);
        let o2 = orientation(self.a, self.b, other.b);
        let o3 = orientation(other.a, other.b, self.a);
        let o4 = orientation(other.a, other.b, self.b);
        if o1 != o2 && o3 != o4 {
            return true;
        }
        (o1 == 0 && on_segment(self.a, other.a, self.b))
            || (o2 == 0 && on_segment(self.a, other.b, self.b))
            || (o3 == 0 && on_segment(other.a, self.a, other.b))
            || (o4 == 0 && on_segment(other.a, self.b, other.b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_lerp() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        let mid = a.lerp(&b, 0.5);
        assert_eq!(mid, Point::new(1.5, 2.0));
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let s2 = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let s2 = Segment::new(Point::new(0.0, 1.0), Point::new(2.0, 1.0));
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn touching_endpoint_counts_as_intersection() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let s2 = Segment::new(Point::new(1.0, 1.0), Point::new(2.0, 0.0));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn far_apart_segments_do_not_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let s2 = Segment::new(Point::new(5.0, 5.0), Point::new(6.0, 5.0));
        assert!(!s1.intersects(&s2));
        assert!(s1.length() > 0.99 && s1.length() < 1.01);
    }

    #[test]
    fn collinear_overlapping_segments_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let s2 = Segment::new(Point::new(1.0, 0.0), Point::new(3.0, 0.0));
        assert!(s1.intersects(&s2));
    }
}
