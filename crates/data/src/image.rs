//! A small raster-image type with the drawing primitives the procedural
//! generators need.
//!
//! Pixels are `f32` in `[0, 1]`, stored channel-major (`[C, H, W]`), which
//! converts to a network input tensor without copying semantics changes.

use odin_tensor::Tensor;

/// An RGB or grayscale raster image with pixels in `[0, 1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Image {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<f32>,
}

impl Image {
    /// Creates a black image.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        assert!(channels == 1 || channels == 3, "only 1- or 3-channel images");
        Image { channels, height, width, data: vec![0.0; channels * height * width] }
    }

    /// Number of channels (1 or 3).
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of scalar values (`C*H*W`).
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Raw pixel buffer (channel-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Reads a pixel channel value.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[(c * self.height + y) * self.width + x]
    }

    /// Writes a pixel channel value (clamped to `[0, 1]`).
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
        self.data[(c * self.height + y) * self.width + x] = v.clamp(0.0, 1.0);
    }

    /// Sets all channels of a pixel from an RGB triple (grayscale images
    /// take the mean).
    #[inline]
    pub fn set_rgb(&mut self, y: usize, x: usize, rgb: [f32; 3]) {
        if self.channels == 3 {
            for (c, &v) in rgb.iter().enumerate() {
                self.set(c, y, x, v);
            }
        } else {
            self.set(0, y, x, (rgb[0] + rgb[1] + rgb[2]) / 3.0);
        }
    }

    /// Blends a color into a pixel: `p = (1-a)·p + a·rgb`.
    #[inline]
    pub fn blend_rgb(&mut self, y: usize, x: usize, rgb: [f32; 3], alpha: f32) {
        let a = alpha.clamp(0.0, 1.0);
        if self.channels == 3 {
            for (c, &v) in rgb.iter().enumerate() {
                let old = self.get(c, y, x);
                self.set(c, y, x, old * (1.0 - a) + v * a);
            }
        } else {
            let v = (rgb[0] + rgb[1] + rgb[2]) / 3.0;
            let old = self.get(0, y, x);
            self.set(0, y, x, old * (1.0 - a) + v * a);
        }
    }

    /// Fills an axis-aligned rectangle (clipped to the image bounds).
    pub fn fill_rect(&mut self, y0: isize, x0: isize, h: usize, w: usize, rgb: [f32; 3]) {
        for dy in 0..h as isize {
            let y = y0 + dy;
            if y < 0 || y >= self.height as isize {
                continue;
            }
            for dx in 0..w as isize {
                let x = x0 + dx;
                if x < 0 || x >= self.width as isize {
                    continue;
                }
                self.set_rgb(y as usize, x as usize, rgb);
            }
        }
    }

    /// Blends a rectangle with alpha (clipped).
    pub fn blend_rect(
        &mut self,
        y0: isize,
        x0: isize,
        h: usize,
        w: usize,
        rgb: [f32; 3],
        alpha: f32,
    ) {
        for dy in 0..h as isize {
            let y = y0 + dy;
            if y < 0 || y >= self.height as isize {
                continue;
            }
            for dx in 0..w as isize {
                let x = x0 + dx;
                if x < 0 || x >= self.width as isize {
                    continue;
                }
                self.blend_rgb(y as usize, x as usize, rgb, alpha);
            }
        }
    }

    /// Draws a thick line segment by stamping squares along it.
    pub fn draw_line(
        &mut self,
        y0: f32,
        x0: f32,
        y1: f32,
        x1: f32,
        thickness: usize,
        rgb: [f32; 3],
    ) {
        let steps = ((y1 - y0).abs().max((x1 - x0).abs()).ceil() as usize).max(1) * 2;
        let t = thickness as isize;
        for s in 0..=steps {
            let f = s as f32 / steps as f32;
            let y = y0 + (y1 - y0) * f;
            let x = x0 + (x1 - x0) * f;
            self.fill_rect(
                y.round() as isize - t / 2,
                x.round() as isize - t / 2,
                thickness,
                thickness,
                rgb,
            );
        }
    }

    /// Fills the whole image with a vertical gradient from `top` to
    /// `bottom` over rows `[0, rows)`.
    pub fn vertical_gradient(&mut self, rows: usize, top: [f32; 3], bottom: [f32; 3]) {
        let rows = rows.min(self.height);
        for y in 0..rows {
            let f = if rows > 1 { y as f32 / (rows - 1) as f32 } else { 0.0 };
            let rgb = [
                top[0] + (bottom[0] - top[0]) * f,
                top[1] + (bottom[1] - top[1]) * f,
                top[2] + (bottom[2] - top[2]) * f,
            ];
            for x in 0..self.width {
                self.set_rgb(y, x, rgb);
            }
        }
    }

    /// Multiplies every pixel by a scalar (global brightness).
    pub fn scale_brightness(&mut self, factor: f32) {
        for v in &mut self.data {
            *v = (*v * factor).clamp(0.0, 1.0);
        }
    }

    /// Blends the whole image toward a color: `p = (1-a)·p + a·rgb`
    /// (fog/haze).
    pub fn wash(&mut self, rgb: [f32; 3], alpha: f32) {
        let a = alpha.clamp(0.0, 1.0);
        for c in 0..self.channels {
            let target = if self.channels == 3 { rgb[c] } else { (rgb[0] + rgb[1] + rgb[2]) / 3.0 };
            let plane =
                &mut self.data[c * self.height * self.width..(c + 1) * self.height * self.width];
            for v in plane {
                *v = *v * (1.0 - a) + target * a;
            }
        }
    }

    /// Converts to a `[C, H, W]` tensor.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.data.clone(), &[self.channels, self.height, self.width])
    }

    /// Converts to a `[1, C, H, W]` batch tensor.
    pub fn to_batch_tensor(&self) -> Tensor {
        Tensor::from_vec(self.data.clone(), &[1, self.channels, self.height, self.width])
    }

    /// Builds an image back from a `[C, H, W]` tensor, clamping to `[0,1]`.
    pub fn from_tensor(t: &Tensor) -> Self {
        assert_eq!(t.ndim(), 3, "Image::from_tensor expects [C, H, W]");
        let (c, h, w) = (t.shape()[0], t.shape()[1], t.shape()[2]);
        assert!(c == 1 || c == 3, "only 1- or 3-channel images");
        Image {
            channels: c,
            height: h,
            width: w,
            data: t.data().iter().map(|&v| v.clamp(0.0, 1.0)).collect(),
        }
    }

    /// Stacks a slice of images into a `[B, C, H, W]` batch tensor.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty or shapes differ.
    pub fn batch(images: &[Image]) -> Tensor {
        assert!(!images.is_empty(), "cannot batch zero images");
        let (c, h, w) = (images[0].channels, images[0].height, images[0].width);
        let mut data = Vec::with_capacity(images.len() * c * h * w);
        for img in images {
            assert_eq!((img.channels, img.height, img.width), (c, h, w), "image shape mismatch");
            data.extend_from_slice(&img.data);
        }
        Tensor::from_vec(data, &[images.len(), c, h, w])
    }

    /// Stacks borrowed images into a `[B, C, h, w]` batch tensor, each
    /// already-`h`×`w` image copied once, straight into the batch, and
    /// only foreign sizes resized (nearest-neighbour) on the way.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty or channel counts differ.
    pub fn batch_resized(images: &[&Image], h: usize, w: usize) -> Tensor {
        assert!(!images.is_empty(), "cannot batch zero images");
        let c = images[0].channels;
        let mut data = Vec::with_capacity(images.len() * c * h * w);
        for img in images {
            assert_eq!(img.channels, c, "image channel mismatch");
            if (img.height, img.width) == (h, w) {
                data.extend_from_slice(&img.data);
            } else {
                data.extend_from_slice(&img.resize_nearest(h, w).data);
            }
        }
        Tensor::from_vec(data, &[images.len(), c, h, w])
    }

    /// Nearest-neighbour resize to `h`×`w`.
    ///
    /// Used to standardize generative-model inputs (e.g. 28×28 digits to a
    /// 32×32 encoder grid).
    pub fn resize_nearest(&self, h: usize, w: usize) -> Image {
        assert!(h > 0 && w > 0, "resize target must be non-empty");
        let mut out = Image::new(self.channels, h, w);
        for c in 0..self.channels {
            for y in 0..h {
                let sy = (y * self.height / h).min(self.height - 1);
                for x in 0..w {
                    let sx = (x * self.width / w).min(self.width - 1);
                    out.set(c, y, x, self.get(c, sy, sx));
                }
            }
        }
        out
    }

    /// Mean pixel value (proxy for brightness).
    pub fn mean_brightness(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let img = Image::new(3, 4, 4);
        assert_eq!(img.mean_brightness(), 0.0);
        assert_eq!(img.numel(), 48);
    }

    #[test]
    fn set_clamps() {
        let mut img = Image::new(1, 2, 2);
        img.set(0, 0, 0, 5.0);
        assert_eq!(img.get(0, 0, 0), 1.0);
        img.set(0, 0, 0, -1.0);
        assert_eq!(img.get(0, 0, 0), 0.0);
    }

    #[test]
    fn fill_rect_clips_out_of_bounds() {
        let mut img = Image::new(3, 4, 4);
        img.fill_rect(-2, -2, 3, 3, [1.0, 1.0, 1.0]);
        assert_eq!(img.get(0, 0, 0), 1.0);
        assert_eq!(img.get(0, 1, 1), 0.0); // rect covers rows -2..1, cols -2..1
        assert_eq!(img.get(0, 3, 3), 0.0);
    }

    #[test]
    fn gradient_interpolates() {
        let mut img = Image::new(3, 4, 2);
        img.vertical_gradient(4, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        assert_eq!(img.get(0, 0, 0), 0.0);
        assert_eq!(img.get(0, 3, 0), 1.0);
        assert!(img.get(0, 1, 0) > 0.0 && img.get(0, 1, 0) < 1.0);
    }

    #[test]
    fn batch_resized_copies_native_and_resizes_foreign() {
        let mut native = Image::new(1, 4, 4);
        native.set(0, 1, 2, 0.5);
        let mut foreign = Image::new(1, 2, 2);
        foreign.set(0, 1, 1, 0.25);
        let t = Image::batch_resized(&[&native, &foreign], 4, 4);
        assert_eq!(t.shape(), &[2, 1, 4, 4]);
        assert_eq!(&t.data()[..16], native.to_tensor().data());
        assert_eq!(&t.data()[16..], foreign.resize_nearest(4, 4).to_tensor().data());
    }

    #[test]
    fn wash_moves_toward_target() {
        let mut img = Image::new(3, 2, 2);
        img.wash([0.6, 0.6, 0.6], 0.5);
        assert!((img.get(0, 0, 0) - 0.3).abs() < 1e-6);
    }

    #[test]
    fn brightness_scaling() {
        let mut img = Image::new(1, 2, 2);
        img.fill_rect(0, 0, 2, 2, [0.8, 0.8, 0.8]);
        img.scale_brightness(0.5);
        assert!((img.mean_brightness() - 0.4).abs() < 1e-6);
    }

    #[test]
    fn tensor_roundtrip() {
        let mut img = Image::new(3, 3, 3);
        img.set_rgb(1, 2, [0.2, 0.4, 0.6]);
        let t = img.to_tensor();
        assert_eq!(t.shape(), &[3, 3, 3]);
        let back = Image::from_tensor(&t);
        assert_eq!(back, img);
    }

    #[test]
    fn batch_shapes() {
        let imgs = vec![Image::new(1, 2, 2); 3];
        let b = Image::batch(&imgs);
        assert_eq!(b.shape(), &[3, 1, 2, 2]);
    }

    #[test]
    fn grayscale_set_rgb_averages() {
        let mut img = Image::new(1, 1, 1);
        img.set_rgb(0, 0, [0.0, 0.5, 1.0]);
        assert!((img.get(0, 0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn resize_nearest_shapes_and_values() {
        let mut img = Image::new(1, 2, 2);
        img.set(0, 0, 0, 1.0);
        let up = img.resize_nearest(4, 4);
        assert_eq!(up.height(), 4);
        assert_eq!(up.get(0, 0, 0), 1.0);
        assert_eq!(up.get(0, 1, 1), 1.0);
        assert_eq!(up.get(0, 2, 2), 0.0);
        let down = up.resize_nearest(2, 2);
        assert_eq!(down, img);
    }

    #[test]
    fn draw_line_marks_endpoints() {
        let mut img = Image::new(1, 8, 8);
        img.draw_line(0.0, 0.0, 7.0, 7.0, 1, [1.0, 1.0, 1.0]);
        assert_eq!(img.get(0, 0, 0), 1.0);
        assert_eq!(img.get(0, 7, 7), 1.0);
    }
}
